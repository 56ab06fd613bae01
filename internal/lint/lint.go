// Package lint assembles the revtr-lint suite: repo-specific go/analysis
// style checkers that turn the determinism, context, metrics, and
// concurrency contracts (DESIGN.md "Determinism contract and static
// enforcement" and "Concurrency contract") into compile-time gates.
// `make lint` / `make ci` run the suite over the whole module via
// cmd/revtr-lint and fail on any finding.
//
// Every analyzer has one shape, flow.Analyzer: it sees every loaded
// package at once through a flow.Program, because lock order and
// suspension safety are properties of cross-package call chains; the
// checks that judge one package at a time (detpath, ctxflow, obsnames,
// locksafe) loop the program's packages.
package lint

import (
	"revtr/internal/lint/analysis"
	"revtr/internal/lint/ctxflow"
	"revtr/internal/lint/detpath"
	"revtr/internal/lint/flow"
	"revtr/internal/lint/loader"
	"revtr/internal/lint/lockorder"
	"revtr/internal/lint/locksafe"
	"revtr/internal/lint/obsnames"
	"revtr/internal/lint/spawnbound"
	"revtr/internal/lint/suspendsafe"
)

// Analyzers returns the suite in its fixed run order.
func Analyzers() []*flow.Analyzer {
	return []*flow.Analyzer{
		detpath.Analyzer,
		ctxflow.Analyzer,
		obsnames.Analyzer,
		locksafe.Analyzer,
		lockorder.Analyzer,
		suspendsafe.Analyzer,
		spawnbound.Analyzer,
	}
}

// Run loads the packages matched by patterns (relative to dir) and runs
// the whole suite, returning the sorted findings.
func Run(dir string, patterns ...string) ([]analysis.Finding, error) {
	pkgs, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return flow.BuildProgram(pkgs).Run(Analyzers()...), nil
}
