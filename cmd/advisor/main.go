// Command advisor answers the paper's design question (Table II): given
// the relative cost of the interconnection network versus the resources
// and the μs/μn ratio of the application, which RSIN class should be
// used?
//
// Usage:
//
//	advisor                          # print the whole of Table II
//	advisor -cost cheap -ratio 0.2   # one recommendation
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rsin/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
}

// run parses args and writes Table II, or the one recommendation the
// flags select, to stdout. Usage errors go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("advisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cost  = fs.String("cost", "", "network cost relative to resources: cheap, comparable, dear")
		ratio = fs.Float64("ratio", 1, "μs/μn ratio of the application")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cost == "" {
		return experiments.RenderTableII(stdout)
	}
	var rel experiments.CostRelation
	switch *cost {
	case "cheap":
		rel = experiments.NetMuchCheaper
	case "comparable":
		rel = experiments.NetComparable
	case "dear":
		rel = experiments.NetMuchDearer
	default:
		return fmt.Errorf("unknown -cost %q (want cheap, comparable, dear)", *cost)
	}
	r := experiments.Advise(rel, *ratio)
	_, err := fmt.Fprintf(stdout, "%s, μs/μn = %g (%s regime):\n  use a %s\n", r.Relation, *ratio, r.Ratio, r.Network)
	return err
}
