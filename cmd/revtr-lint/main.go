// Command revtr-lint runs the repo's static-analysis suite — detpath,
// ctxflow, obsnames, locksafe, lockorder, suspendsafe, spawnbound, all
// over one module-wide program — on the given package patterns and
// exits non-zero on any finding. It is the determinism and concurrency
// gate in `make lint` / `make ci`: introducing a wall-clock read, an
// unseeded random draw, an unsorted map range, a context/metrics/lock
// contract violation, a TryLock, a lock-order cycle, a lock held across
// a suspension point, or an unbounded goroutine fails the build with a
// message naming the invariant. It has no flags: the gate is the whole
// suite or nothing.
//
//	revtr-lint ./...
//	revtr-lint ./internal/sched/
package main

import (
	"flag"
	"fmt"
	"os"

	"revtr/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: revtr-lint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "revtr-lint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "revtr-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
