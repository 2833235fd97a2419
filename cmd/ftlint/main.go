// Command ftlint is the repo's multichecker: it loads the packages named by
// its arguments (default ./...) and runs every analyzer registered in
// internal/lint, printing findings as file:line:col: analyzer: message, or
// as a JSON array with -json for tooling (the CI problem matcher consumes
// the plain-text form; editors and scripts consume the JSON form).
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// Usage:
//
//	go run ./cmd/ftlint ./...
//	go run ./cmd/ftlint -run ckpterr ./internal/engine/...
//	go run ./cmd/ftlint -json ./... > findings.json
//	go run ./cmd/ftlint -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ftpde/internal/lint"
	"ftpde/internal/lint/analysis"
)

// jsonFinding is the stable machine-readable shape of one finding. Field
// names are part of the tool's interface; the CI workflow and editor
// integrations parse them.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("ftlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	asJSON := fs.Bool("json", false, "print findings as a JSON array of {file,line,col,analyzer,message}")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ftlint [-run a,b] [-json] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers
	if *runList != "" {
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "ftlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "ftlint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "ftlint: load: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "ftlint: %v\n", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:     f.Pos.Filename,
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "ftlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "ftlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
