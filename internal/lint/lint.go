// Package lint is bomw's project-specific static-analysis framework:
// a small, stdlib-only (go/ast + go/parser + go/types, no x/tools)
// analyzer harness that mechanically enforces the simulator's
// correctness invariants — the rules `go vet` cannot see:
//
//   - wallclock: virtual-clock packages must not read the wall clock
//   - lockscope: a held mutex must not span a blocking operation, a
//     second Lock or a CompareAndSwap retry loop
//   - senterr:   sentinel errors compare with errors.Is and wrap with %w
//   - ctxparam:  no context.Context in struct fields; ctx comes first
//   - goleak:    every go statement in the serving packages shows a
//     visible termination path (WaitGroup ownership or a quit guard)
//
// Intentional exceptions opt out with a justified directive comment
// attached to the flagged line (same line or the line directly above):
//
//	//bomw:wallclock DecisionTime measures real classification cost
//
// A directive must name the analyzer it silences and carry a non-empty
// justification; a directive that silences nothing, or one without a
// justification, is itself reported — annotations cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a file position.
type Finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named rule with a run function.
type Analyzer struct {
	// Name identifies the analyzer in findings, directives and the
	// CLI's enable/disable flags. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description `bomwvet -list` prints.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// All returns every registered analyzer, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		analyzerWallclock,
		analyzerLockscope,
		analyzerSenterr,
		analyzerCtxparam,
		analyzerGoleak,
	}
}

// ByName resolves analyzer names (comma-tolerant, case-sensitive).
func ByName(names []string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ---- directives --------------------------------------------------------

// directivePrefix opens an opt-out comment: //bomw:<analyzer> <reason>.
const directivePrefix = "//bomw:"

var directiveRe = regexp.MustCompile(`^//bomw:([a-z][a-z0-9]*)(?:[ \t](.*))?$`)

// directive is one parsed //bomw: opt-out comment.
type directive struct {
	name          string // analyzer it silences
	justification string
	file          string
	line          int
	col           int
	used          bool // silenced at least one finding
}

// parseDirectives extracts every //bomw: directive from a file.
func parseDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			m := directiveRe.FindStringSubmatch(c.Text)
			if m == nil {
				// Malformed (e.g. "//bomw: wallclock" with a space):
				// surface it instead of silently ignoring.
				out = append(out, &directive{name: "", file: pos.Filename, line: pos.Line, col: pos.Column})
				continue
			}
			out = append(out, &directive{
				name:          m[1],
				justification: strings.TrimSpace(m[2]),
				file:          pos.Filename,
				line:          pos.Line,
				col:           pos.Column,
			})
		}
	}
	return out
}

// Suppression records one finding a justified //bomw: directive
// silenced — bomwvet -why surfaces these so a suppression is auditable.
type Suppression struct {
	Finding Finding
	DirFile string // directive position
	DirLine int
}

// Result is Run's full outcome: the surviving findings plus the
// suppressions justified directives applied.
type Result struct {
	Findings     []Finding
	Suppressions []Suppression
}

// Run executes the analyzers over the packages, applies directive
// suppression, and returns the surviving findings sorted by position
// with the suppression log. Analyzer run errors are returned after the
// findings collected so far.
func Run(pkgs []*Package, analyzers []*Analyzer) (Result, error) {
	var raw []Finding
	enabled := map[string]bool{}
	for _, az := range analyzers {
		enabled[az.Name] = true
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: az,
				Pkg:      pkg,
				report:   func(f Finding) { raw = append(raw, f) },
			}
			if err := az.Run(pass); err != nil {
				return Result{Findings: sortFindings(raw)}, fmt.Errorf("lint: %s on %s: %w", az.Name, pkg.Rel, err)
			}
		}
	}

	// Gather directives from every analyzed file.
	var directives []*directive
	byFileLine := map[string][]*directive{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range parseDirectives(pkg.Fset, f.AST) {
				directives = append(directives, d)
				byFileLine[fileLine(d.file, d.line)] = append(byFileLine[fileLine(d.file, d.line)], d)
			}
		}
	}

	// Suppression: a justified directive naming the finding's analyzer,
	// on the finding's line or the line directly above it, silences it.
	var res Result
	var out []Finding
	for _, f := range raw {
		if d := matchDirective(byFileLine, f); d != nil {
			d.used = true
			if d.justification == "" {
				out = append(out, Finding{
					Analyzer: f.Analyzer,
					File:     d.file,
					Line:     d.line,
					Col:      d.col,
					Message:  fmt.Sprintf("//bomw:%s directive needs a justification (why is this exception sound?)", f.Analyzer),
				})
				continue
			}
			res.Suppressions = append(res.Suppressions, Suppression{Finding: f, DirFile: d.file, DirLine: d.line})
			continue
		}
		out = append(out, f)
	}

	// A directive that silenced nothing is stale: the code it excused
	// changed, or it was never attached to the flagged statement.
	for _, d := range directives {
		if d.name == "" {
			out = append(out, Finding{
				Analyzer: "directive",
				File:     d.file,
				Line:     d.line,
				Col:      d.col,
				Message:  "malformed //bomw: directive (want //bomw:<analyzer> <justification>)",
			})
			continue
		}
		if !enabled[d.name] {
			continue // its analyzer did not run; cannot judge
		}
		if !d.used {
			out = append(out, Finding{
				Analyzer: d.name,
				File:     d.file,
				Line:     d.line,
				Col:      d.col,
				Message:  fmt.Sprintf("unused //bomw:%s directive: nothing on this line or the next is flagged", d.name),
			})
		}
	}
	res.Findings = sortFindings(out)
	return res, nil
}

func fileLine(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// matchDirective finds a directive attached to the finding: on its line
// or the line directly above.
func matchDirective(byFileLine map[string][]*directive, f Finding) *directive {
	for _, ln := range []int{f.Line, f.Line - 1} {
		for _, d := range byFileLine[fileLine(f.File, ln)] {
			if d.name == f.Analyzer {
				return d
			}
		}
	}
	return nil
}

func sortFindings(fs []Finding) []Finding {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Col != fs[j].Col {
			return fs[i].Col < fs[j].Col
		}
		return fs[i].Analyzer < fs[j].Analyzer
	})
	return fs
}
