package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// wallclockFns are the time-package functions that read or schedule on
// the wall clock. time.Duration arithmetic is fine — it is the currency
// of the virtual clock — but these entry points leak real time into the
// simulation and skew every latency/energy crossover the scheduler
// learns from.
var wallclockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Tick": true,
}

// virtualClockPkgs are the packages whose time must be virtual: the
// simulated OpenCL runtime, the device simulators, the scheduler core,
// the cluster/routing tier, and the trace toolkit. Matched as a suffix
// of the package's module-relative path, so test fixtures can mirror the
// layout.
var virtualClockPkgs = []string{
	"internal/opencl",
	"internal/device",
	"internal/core",
	"internal/cluster",
	"internal/trace",
	// The workload compiler emits virtual-time arrival streams; wall
	// time leaking in would make compiled traces irreproducible. Its
	// scenario subpackage is deliberately NOT listed: live scenario
	// runs pace arrivals on the wall clock by design, and suffix
	// matching keeps internal/workload/scenario out of this entry.
	"internal/workload",
}

var analyzerWallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid wall-clock reads (time.Now, time.Sleep, timers, ...) in virtual-clock packages\n" +
		"(internal/opencl, internal/device, internal/core, internal/cluster, internal/trace,\n" +
		"internal/workload — but not internal/workload/scenario, whose live mode paces real time);\n" +
		"serving code takes its time from the injected core.Clock; the intentional wall-clock\n" +
		"sites — core.WallClock and the scheduler's DecisionTime — carry a\n" +
		"//bomw:wallclock <justification> directive",
	Run: runWallclock,
}

func isVirtualClockPkg(rel string) bool {
	for _, p := range virtualClockPkgs {
		if rel == p || strings.HasSuffix(rel, "/"+p) {
			return true
		}
	}
	return false
}

func runWallclock(pass *Pass) error {
	if !isVirtualClockPkg(pass.Pkg.Rel) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		timeName, ok := importName(f.AST, "time")
		if !ok {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != timeName || !wallclockFns[sel.Sel.Name] {
				return true
			}
			if !identIsPackage(pass, id) {
				return true // shadowed by a local variable
			}
			pass.Reportf(sel.Pos(),
				"wall-clock time.%s in virtual-clock package %s: simulated code must advance only the virtual clock; annotate intentional sites with //bomw:wallclock <why>",
				sel.Sel.Name, pass.Pkg.Rel)
			return true
		})
	}
	return nil
}

// importName returns the file-local name of an import path ("" and
// false when not imported, or imported blank/dot).
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "", false
			}
			return imp.Name.Name, true
		}
		base := p
		if i := strings.LastIndex(base, "/"); i >= 0 {
			base = base[i+1:]
		}
		return base, true
	}
	return "", false
}

// identIsPackage reports whether the identifier resolves to a package
// name. When type info is missing (test files, broken packages) it
// assumes yes — the import-alias match already happened.
func identIsPackage(pass *Pass, id *ast.Ident) bool {
	if pass.Pkg.Info == nil {
		return true
	}
	obj, ok := pass.Pkg.Info.Uses[id]
	if !ok || obj == nil {
		return true
	}
	_, isPkg := obj.(*types.PkgName)
	return isPkg
}
