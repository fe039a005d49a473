package lint

import (
	"encoding/json"
	"io"
)

// SARIF rendering for CI annotation: bomwvet -sarif emits a static
// analysis results interchange format 2.1.0 log that GitHub's
// code-scanning upload action turns into inline PR annotations. The
// schema subset here is deliberately small — one run, one driver, one
// rule per analyzer, one result per finding — and hand-rolled structs
// keep it dependency-free.
//
// File paths in findings are expected to be module-root-relative
// (bomwvet relativises before rendering); uriBaseId SRCROOT tells the
// uploader to resolve them against the checkout root.

const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifBaseID  = "%SRCROOT%"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the findings as one SARIF 2.1.0 run. analyzers
// populates the rule table (every analyzer that ran, so a clean run
// still documents what was checked); findings whose Analyzer is not in
// the table (the synthetic "directive" findings) get an ad-hoc rule.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding) error {
	rules := make([]sarifRule, 0, len(analyzers))
	known := map[string]bool{}
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
		known[a.Name] = true
	}
	for _, f := range findings {
		if !known[f.Analyzer] {
			rules = append(rules, sarifRule{
				ID:               f.Analyzer,
				ShortDescription: sarifMessage{Text: "bomwvet " + f.Analyzer + " diagnostic"},
			})
			known[f.Analyzer] = true
		}
	}

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: f.File, URIBaseID: sarifBaseID},
				Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}

	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "bomwvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(log)
}
