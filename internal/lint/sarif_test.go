package lint_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bomw/internal/lint"
)

// TestWriteSARIF pins the subset of SARIF 2.1.0 the CI upload depends
// on: version, driver name, a rule per analyzer, result locations with
// SRCROOT-relative URIs.
func TestWriteSARIF(t *testing.T) {
	findings := []lint.Finding{
		{
			Analyzer: "lockscope",
			File:     "internal/cluster/cluster.go",
			Line:     12,
			Col:      3,
			Message:  "channel send while mutex c.mu is held",
		},
		{
			Analyzer: "directive",
			File:     "internal/core/pipeline.go",
			Line:     7,
			Col:      1,
			Message:  "malformed //bomw: directive",
		},
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, lint.All(), findings); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "bomwvet" {
		t.Errorf("driver = %q, want bomwvet", run.Tool.Driver.Name)
	}
	// One rule per registered analyzer plus the ad-hoc "directive" rule.
	wantRules := len(lint.All()) + 1
	if len(run.Tool.Driver.Rules) != wantRules {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), wantRules)
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"wallclock", "lockscope", "senterr", "ctxparam", "goleak", "directive"} {
		if !ruleIDs[want] {
			t.Errorf("rule %q missing from driver rules", want)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "lockscope" || first.Level != "error" {
		t.Errorf("first result = %s/%s, want lockscope/error", first.RuleID, first.Level)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/cluster/cluster.go" || loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("location = %+v, want SRCROOT-relative uri", loc.ArtifactLocation)
	}
	if loc.Region.StartLine != 12 {
		t.Errorf("startLine = %d, want 12", loc.Region.StartLine)
	}
	// URIs must stay forward-slashed for the uploader.
	if strings.Contains(buf.String(), `\\`) {
		t.Errorf("SARIF output contains backslashed paths:\n%s", buf.String())
	}
}

// TestWriteSARIFEmpty: a clean run still emits a valid log with the
// rule table (so code scanning knows the checks ran) and zero results.
func TestWriteSARIFEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, lint.All(), nil); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
		t.Errorf("want one run with empty (non-null) results, got %s", buf.String())
	}
}
