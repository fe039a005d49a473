package repro

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// elapsed matches the wall-clock duration that ends a report's summary
// line: the only part of a report that is not seeded.
var elapsed = regexp.MustCompile(`(?m)^(\d+/\d+ paper-shape checks passed) · .*$`)

func withoutElapsed(s string) string { return elapsed.ReplaceAllString(s, "$1") }

func TestQuickReproductionPasses(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Run(&buf, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	pass, total := rep.Passed()
	if total < 10 {
		t.Fatalf("only %d checks ran", total)
	}
	if pass != total {
		for _, c := range rep.Checks {
			if !c.Pass {
				t.Errorf("FAILED check %s: claim %q, measured %s", c.Name, c.Claim, c.Measured)
			}
		}
		t.Fatalf("%d/%d checks passed", pass, total)
	}
	out := buf.String()
	for _, want := range []string{
		"# bomw reproduction report",
		"Fig3a-simple-warm",
		"TableII-forest-best",
		"Fig6-unseen-accuracy",
		"VI-energy-saving",
		"✓ PASS",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatal("report contains failures")
	}
}

func TestReportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if _, err := Run(&a, Options{Quick: true, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(&b, Options{Quick: true, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if withoutElapsed(a.String()) != withoutElapsed(b.String()) {
		t.Fatal("same-seed reproductions differ")
	}
}

// The committed repro_report.md is the full run at seed 1: every
// virtual-clock result it prints — crossovers, throughput peaks, selector
// accuracies, the scheduler headlines — is pinned by it.
func TestFullReportMatchesCommittedReport(t *testing.T) {
	want, err := os.ReadFile("../../repro_report.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := Run(&got, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if g, w := withoutElapsed(got.String()), withoutElapsed(string(want)); g != w {
		gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("report line %d differs from repro_report.md (regenerate with go run ./cmd/repro -out repro_report.md only for an intended change):\n got: %q\nwant: %q",
					i+1, at(gl, i), at(wl, i))
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of report>"
}
