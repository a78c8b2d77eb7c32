// Command greenbench regenerates the paper's evaluation figures on the
// simulated substrates.
//
// Usage:
//
//	greenbench -exp fig10              # one experiment
//	greenbench -exp all                # every registered experiment
//	greenbench -list                   # list experiment ids
//	greenbench -exp fig6 -scale 0.2    # reduced workload
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"green/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (e.g. fig10) or 'all'")
		seed    = flag.Int64("seed", 42, "workload seed")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		workers = flag.Int("workers", 1, "goroutines for the calibration phases (results identical for any value)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		out     = flag.String("o", "", "also append output to this file")
	)
	flag.Parse()

	sink := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greenbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = io.MultiWriter(os.Stdout, f)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-10s %s\n", id, experiments.Title(id))
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "greenbench: -exp required (or -list); e.g. -exp fig10")
		os.Exit(2)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Workers: *workers}
	for _, id := range ids {
		start := time.Now()
		t, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "greenbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprint(sink, t.String())
		fmt.Fprintf(sink, "(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
