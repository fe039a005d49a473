// Package lint is bomw's project-specific static-analysis framework:
// a small, stdlib-only (go/ast + go/parser + go/types, no x/tools)
// analyzer harness that mechanically enforces the simulator's
// correctness invariants — the rules `go vet` cannot see:
//
//   - wallclock: virtual-clock packages must not read the wall clock
//   - lockscope: a held mutex must not span a blocking operation
//   - senterr:   sentinel errors compare with errors.Is and wrap with %w
//   - ctxparam:  no context.Context in struct fields; ctx comes first
//   - atomics:   a field accessed via sync/atomic anywhere is accessed
//     atomically everywhere; no CAS retry loop under a held mutex
//   - poollife:  pooled carriers are never touched after retirement,
//     never double-released, and Put only in designated recyclers
//   - goleak:    every go statement in the serving packages shows a
//     visible termination path (WaitGroup ownership or a quit guard)
//   - lockorder: the package-level mutex acquisition graph is acyclic
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
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`

	// Related holds the finding's other positions — a lockorder cycle
	// reports every edge, not just the first. A //bomw: directive at any
	// related position silences the finding exactly like one at the
	// primary position (cross-file cycles can be justified where the
	// exception actually lives).
	Related []Related `json:"related,omitempty"`
}

// Related is one secondary position of a multi-site finding.
type Related struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Note string `json:"note,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// IncludeTests extends the run to _test.go files (off by default:
	// the invariants target production code; tests may legitimately
	// spin wall clocks and poke internals).
	IncludeTests bool

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

// ReportRelated records a finding that spans several positions (e.g. a
// lock-order cycle: one edge per position). The first position is the
// primary; the rest become Related, and a directive at any of them
// silences the whole finding.
func (p *Pass) ReportRelated(positions []token.Pos, notes []string, format string, args ...interface{}) {
	if len(positions) == 0 {
		return
	}
	primary := p.Pkg.Fset.Position(positions[0])
	f := Finding{
		Analyzer: p.Analyzer.Name,
		File:     primary.Filename,
		Line:     primary.Line,
		Col:      primary.Column,
		Message:  fmt.Sprintf(format, args...),
	}
	for i, pos := range positions[1:] {
		rp := p.Pkg.Fset.Position(pos)
		rel := Related{File: rp.Filename, Line: rp.Line, Col: rp.Column}
		if i+1 < len(notes) {
			rel.Note = notes[i+1]
		}
		f.Related = append(f.Related, rel)
	}
	p.report(f)
}

// Files yields the files this pass analyzes (test files only when
// IncludeTests is set).
func (p *Pass) Files() []*File {
	var out []*File
	for _, f := range p.Pkg.Files {
		if f.Test && !p.IncludeTests {
			continue
		}
		out = append(out, f)
	}
	return out
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
		analyzerAtomics,
		analyzerPoollife,
		analyzerGoleak,
		analyzerLockorder,
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

// RunOptions parameterises Run.
type RunOptions struct {
	// IncludeTests analyzes _test.go files too.
	IncludeTests bool
}

// Suppression records one finding a justified //bomw: directive
// silenced — bomwvet -why surfaces these so a suppression is auditable,
// and for multi-position findings (lockorder cycles) it names which
// edge the directive cleared.
type Suppression struct {
	Finding Finding `json:"finding"`
	// Directive position.
	DirFile string `json:"dir_file"`
	DirLine int    `json:"dir_line"`
	// ClearedAt describes the position the directive attached to:
	// "primary" or "edge N of M" for a related position.
	ClearedAt string `json:"cleared_at"`
}

// Result is RunAll's full outcome: the surviving findings plus the
// suppressions justified directives applied.
type Result struct {
	Findings     []Finding
	Suppressions []Suppression
}

// Run executes the analyzers over the packages, applies directive
// suppression, and returns the surviving findings sorted by position.
// Analyzer run errors are returned after the findings collected so far.
func Run(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Finding, error) {
	res, err := RunAll(pkgs, analyzers, opts)
	return res.Findings, err
}

// RunAll is Run plus the suppression log.
func RunAll(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) (Result, error) {
	var raw []Finding
	enabled := map[string]bool{}
	for _, az := range analyzers {
		enabled[az.Name] = true
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer:     az,
				Pkg:          pkg,
				IncludeTests: opts.IncludeTests,
				report:       func(f Finding) { raw = append(raw, f) },
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
			if f.Test && !opts.IncludeTests {
				continue
			}
			for _, d := range parseDirectives(pkg.Fset, f.AST) {
				directives = append(directives, d)
				byFileLine[fmt.Sprintf("%s:%d", d.file, d.line)] = append(byFileLine[fmt.Sprintf("%s:%d", d.file, d.line)], d)
			}
		}
	}

	// Suppression: a justified directive naming the finding's analyzer,
	// on the finding's line or the line directly above it, silences it.
	// Multi-position findings (lockorder cycles) accept the directive at
	// the primary position or at any related edge — the justification
	// lives where the exception does, which may be another file.
	var res Result
	var out []Finding
	for _, f := range raw {
		if d, clearedAt := matchDirective(byFileLine, f); d != nil {
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
			res.Suppressions = append(res.Suppressions, Suppression{
				Finding:   f,
				DirFile:   d.file,
				DirLine:   d.line,
				ClearedAt: clearedAt,
			})
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

// matchDirective finds a directive attached to the finding — same line
// or the line directly above, at the primary position or any related
// one — and describes which position it cleared.
func matchDirective(byFileLine map[string][]*directive, f Finding) (*directive, string) {
	if d := matchDirectiveAt(byFileLine, f.Analyzer, f.File, f.Line); d != nil {
		return d, "primary"
	}
	for i, rel := range f.Related {
		if d := matchDirectiveAt(byFileLine, f.Analyzer, rel.File, rel.Line); d != nil {
			return d, fmt.Sprintf("edge %d of %d (%s:%d)", i+2, len(f.Related)+1, rel.File, rel.Line)
		}
	}
	return nil, ""
}

func matchDirectiveAt(byFileLine map[string][]*directive, analyzer, file string, line int) *directive {
	for _, ln := range []int{line, line - 1} {
		for _, d := range byFileLine[fmt.Sprintf("%s:%d", file, ln)] {
			if d.name == analyzer {
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
