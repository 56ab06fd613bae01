// Command revtr-eval regenerates the paper's tables and figures against
// the simulated Internet.
//
//	revtr-eval -list
//	revtr-eval -run fig5a,table4
//	revtr-eval -run all -scale large
//
// Output is a text rendition of each table/figure with the paper's
// numbers quoted for comparison; see EXPERIMENTS.md for the recorded
// medium-scale results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"revtr/internal/eval"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list experiments and exit")
		run   = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale = flag.String("scale", "medium", "small | medium | large")
		seed  = flag.Int64("seed", 42, "simulation seed")
	)
	flag.Parse()

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Paper)
		}
		return
	}

	var s eval.Scale
	switch *scale {
	case "small":
		s = eval.SmallScale()
	case "medium":
		s = eval.MediumScale()
	case "large":
		s = eval.LargeScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	s.Seed = *seed

	var ids []string
	if *run == "all" {
		for _, e := range eval.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	failed := 0
	for _, id := range ids {
		e, ok := eval.Find(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		start := time.Now() //revtr:wallclock operator-facing runtime report, not simulation time
		if err := e.Run(context.Background(), s, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(os.Stderr, "  [%s completed in %.1fs]\n", e.ID, time.Since(start).Seconds()) //revtr:wallclock operator-facing runtime report, not simulation time
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}
