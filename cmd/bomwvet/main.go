// Command bomwvet runs bomw's five project-specific analyzers — the
// invariants `go vet` cannot see: virtual-clock discipline, lock scope,
// sentinel-error hygiene, context placement and goroutine ownership.
// See internal/lint for the analyzers and the //bomw: directive syntax.
//
// Usage:
//
//	bomwvet [flags] [packages]
//
//	bomwvet ./...            # whole module (the make lint invocation)
//	bomwvet -sarif ./...     # SARIF 2.1.0 for code-scanning upload
//	bomwvet -why ./...       # also explain directive suppressions
//	bomwvet -only wallclock ./internal/core/...
//	bomwvet -skip lockscope ./...
//	bomwvet -list            # describe the analyzers
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors. -sarif
// keeps the same exit contract as text output: the log is written
// either way, and findings still exit 1 so `make lint` semantics are
// unchanged when redirecting the log to a file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bomw/internal/lint"
)

func main() {
	var (
		sarifOut = flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (code-scanning upload format)")
		why      = flag.Bool("why", false, "also print //bomw: directive suppressions (text mode only)")
		only     = flag.String("only", "", "comma-separated analyzers to run (default: all)")
		skip     = flag.String("skip", "", "comma-separated analyzers to disable")
		list     = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%s\n", a.Name)
			for _, line := range strings.Split(a.Doc, "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
		return
	}

	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bomwvet:", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bomwvet:", err)
		os.Exit(2)
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bomwvet:", err)
		os.Exit(2)
	}

	// Patterns are relative to the invoking directory, like go vet —
	// not to the module root Load would otherwise resolve against.
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := lint.Load(root, absPatterns(cwd, args))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bomwvet:", err)
		os.Exit(2)
	}
	res, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bomwvet:", err)
		os.Exit(2)
	}
	findings := res.Findings

	// Report paths relative to the module root: stable across machines,
	// clickable in editors and CI logs, and what SARIF's SRCROOT base
	// expects.
	relPath := func(p string) string {
		if rel, rerr := filepath.Rel(root, p); rerr == nil {
			return filepath.ToSlash(rel)
		}
		return p
	}
	for i := range findings {
		findings[i].File = relPath(findings[i].File)
	}

	if *sarifOut {
		if err := lint.WriteSARIF(os.Stdout, analyzers, findings); err != nil {
			fmt.Fprintln(os.Stderr, "bomwvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if *why {
			for _, s := range res.Suppressions {
				fmt.Printf("%s:%d:%d: [%s] suppressed by //bomw:%s at %s:%d\n",
					relPath(s.Finding.File), s.Finding.Line, s.Finding.Col,
					s.Finding.Analyzer, s.Finding.Analyzer,
					relPath(s.DirFile), s.DirLine)
			}
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bomwvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func selectAnalyzers(only, skip string) ([]*lint.Analyzer, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	if only != "" {
		return lint.ByName(splitList(only))
	}
	skipped := map[string]bool{}
	if skip != "" {
		// Validate the names so a typo fails loudly instead of silently
		// running everything.
		if _, err := lint.ByName(splitList(skip)); err != nil {
			return nil, err
		}
		for _, n := range splitList(skip) {
			skipped[n] = true
		}
	}
	var out []*lint.Analyzer
	for _, a := range lint.All() {
		if !skipped[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("every analyzer is skipped")
	}
	return out, nil
}

func absPatterns(cwd string, args []string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		base, suffix := a, ""
		if a == "..." {
			base, suffix = ".", "/..."
		} else if strings.HasSuffix(a, "/...") {
			base, suffix = strings.TrimSuffix(a, "/..."), "/..."
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(cwd, base)
		}
		out[i] = base + suffix
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
