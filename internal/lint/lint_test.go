package lint_test

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bomw/internal/lint"
)

// The golden-file convention, after go/analysis's analysistest:
//
//	expr() // want "regexp"     — expects a finding on this line whose
//	                              message matches the regexp
//	// want:12 "regexp"         — expects a finding at absolute line 12;
//	                              used for directive-position findings,
//	                              where a trailing comment would merge
//	                              into the //bomw: directive itself
//
// Several wants may share a line. Every finding must match a want and
// every want must be matched, so clean fixture files assert "no
// findings" simply by containing no want comments.
var wantRe = regexp.MustCompile(`// want(?::(\d+))? "((?:[^"\\]|\\.)*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads testdata/src/<fixture> recursively, runs the named
// analyzer, and diffs the findings against the fixture's want comments.
func runFixture(t *testing.T, analyzer, fixture string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", fixture)
	}
	azs, err := lint.ByName([]string{analyzer})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(pkgs, azs)
	if err != nil {
		t.Fatalf("running %s: %v", analyzer, err)
	}
	wants := parseWants(t, pkgs)
	for _, f := range res.Findings {
		if !claim(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func parseWants(t *testing.T, pkgs []*lint.Package) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			data, err := os.ReadFile(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					ln := i + 1
					if m[1] != "" {
						if ln, err = strconv.Atoi(m[1]); err != nil {
							t.Fatalf("%s:%d: bad want line %q", f.Name, i+1, m[1])
						}
					}
					re, err := regexp.Compile(m[2])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", f.Name, i+1, m[2], err)
					}
					wants = append(wants, &want{file: f.Name, line: ln, re: re})
				}
			}
		}
	}
	return wants
}

// claim matches a finding against the first unmatched want on its line.
func claim(wants []*want, f lint.Finding) bool {
	for _, w := range wants {
		if !w.hit && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

func TestWallclock(t *testing.T) { runFixture(t, "wallclock", "wallclock") }
func TestLockscope(t *testing.T) { runFixture(t, "lockscope", "lockscope") }
func TestSenterr(t *testing.T)   { runFixture(t, "senterr", "senterr") }
func TestCtxparam(t *testing.T)  { runFixture(t, "ctxparam", "ctxparam") }
func TestGoleak(t *testing.T)    { runFixture(t, "goleak", "goleak") }

// TestRepoIsClean runs the full analyzer suite over the real module —
// the same invocation as `make lint` — and demands zero findings. Any
// new violation must be fixed or carry a justified //bomw: directive
// before it lands.
func TestRepoIsClean(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// TestLoadResolvesSyncTypes: the loader resolves the standard library
// through the gc importer, so sync and sync/atomic types reach the
// analyzers' type info (goleak's WaitGroup evidence keys on them)
// instead of degrading to empty stubs.
func TestLoadResolvesSyncTypes(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "lockscope"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, []string{"."})
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("Load = %d packages, %v", len(pkgs), err)
	}
	got := map[string]bool{}
	for _, tv := range pkgs[0].Info.Types {
		if ptr, ok := tv.Type.(*types.Pointer); ok {
			if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Pkg() != nil {
				got[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
			}
		}
	}
	for _, want := range []string{"sync.Mutex", "sync/atomic.Int64"} {
		if !got[want] {
			t.Errorf("no expression of type *%s in the fixture's type info", want)
		}
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := lint.ByName([]string{"wallclock", "nosuch"}); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	azs, err := lint.ByName([]string{"senterr"})
	if err != nil || len(azs) != 1 || azs[0].Name != "senterr" {
		t.Fatalf("ByName(senterr) = %v, %v", azs, err)
	}
}

func TestAllAnalyzersDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incomplete: doc or run missing", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 5 {
		t.Fatalf("expected 5 analyzers, have %d", len(seen))
	}
}
