package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and (best-effort) type-checked package.
type Package struct {
	// Dir is the absolute package directory.
	Dir string
	// Rel is the module-root-relative directory, "/"-separated — the
	// identity analyzers scope on (e.g. "internal/opencl").
	Rel string
	// Fset positions every file of the load.
	Fset *token.FileSet
	// Files are the parsed non-test sources: the invariants hold for
	// production code, and tests may spin wall clocks and poke
	// internals.
	Files []*File
	// Types and Info hold the best-effort check result. The standard
	// library resolves through the gc importer; other imports resolve to
	// empty stub packages, so cross-package types are missing —
	// analyzers must treat Info as advisory and fall back to syntax.
	Types *types.Package
	Info  *types.Info
}

// File is one parsed source file.
type File struct {
	Name string // absolute path
	AST  *ast.File
}

// Load expands the patterns (a directory, or dir/... for a recursive
// walk; "./..." covers the module) from the module root and returns the
// parsed packages. Directories named testdata, vendor, or starting with
// "." or "_" are skipped during recursive walks — but an explicitly
// named directory always loads, which is how the analyzer tests load
// their fixtures.
func Load(root string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := map[string]bool{}
	var order []string
	add := func(d string) {
		if !dirs[d] {
			dirs[d] = true
			order = append(order, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		base = filepath.Clean(base)
		st, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	imp := newStubImporter()
	var pkgs []*Package
	for _, dir := range order {
		pkg, err := loadDir(fset, imp, root, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir to the directory holding go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func skipDir(name string) bool {
	return name == "testdata" || name == "vendor" || name == "node_modules" ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func loadDir(fset *token.FileSet, imp types.Importer, root, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		rel = dir
	}
	pkg := &Package{Dir: dir, Rel: filepath.ToSlash(rel), Fset: fset}
	var checkFiles []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		astf, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, &File{Name: path, AST: astf})
		checkFiles = append(checkFiles, astf)
	}

	// Best-effort type check. Errors are expected — module imports
	// resolve to stubs — and deliberately swallowed; analyzers use
	// whatever Info survived and fall back to syntax.
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // collect nothing, check everything
	}
	pkg.Types, _ = conf.Check(pkg.Rel, fset, checkFiles, pkg.Info)
	return pkg, nil
}

// stubImporter resolves the standard library through the gc importer,
// which finds its export data with `go list -export`, and satisfies
// every other import with an empty stub package so checking can
// continue. The stubs make cross-package references errors the checker
// swallows — fine for these analyzers, which need intra-package types
// and the stdlib's sync, time, context and fmt.
type stubImporter struct {
	gc    types.Importer
	stubs map[string]*types.Package
}

func newStubImporter() *stubImporter {
	return &stubImporter{gc: importer.Default(), stubs: map[string]*types.Package{}}
}

func (im *stubImporter) Import(path string) (*types.Package, error) {
	if p := im.stubs[path]; p != nil {
		return p, nil
	}
	if p, err := im.gc.Import(path); err == nil && p != nil {
		return p, nil
	}
	p := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	im.stubs[path] = p
	return p, nil
}
