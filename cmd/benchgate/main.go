// Command benchgate gates benchmark regressions: it parses `go test
// -bench` output (a file or stdin), compares it against a committed
// baseline, and exits nonzero when any gated metric is worse than the
// baseline by more than the threshold.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchgate -baseline bench_baseline.txt
//	benchgate -baseline bench_baseline.txt -input bench_output.txt -threshold 0.25
//	benchgate -baseline bench_baseline.txt -threshold 0.6 -report-only ns/op
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchgate"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline benchmark output (required)")
	input := flag.String("input", "-", "current benchmark output; '-' reads stdin")
	threshold := flag.Float64("threshold", 0.10, "tolerated fractional slowdown (0.10 = 10%)")
	reportOnly := flag.String("report-only", "", "comma-separated units to print without gating (e.g. ns/op)")
	flag.Parse()

	var units []string
	if *reportOnly != "" {
		units = strings.Split(*reportOnly, ",")
	}
	if err := run(*baseline, *input, *threshold, units); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(baselinePath, inputPath string, threshold float64, reportOnly []string) error {
	if baselinePath == "" {
		return fmt.Errorf("-baseline is required")
	}
	bf, err := os.Open(baselinePath)
	if err != nil {
		return err
	}
	defer bf.Close()
	base, err := benchgate.Parse(bf)
	if err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}

	var in io.Reader = os.Stdin
	if inputPath != "-" {
		cf, err := os.Open(inputPath)
		if err != nil {
			return err
		}
		defer cf.Close()
		in = cf
	}
	cur, err := benchgate.Parse(in)
	if err != nil {
		return fmt.Errorf("current run: %w", err)
	}

	rep, err := benchgate.Compare(base, cur, threshold, reportOnly...)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	if rep.Failed() {
		return fmt.Errorf("benchmark regression past %.0f%% threshold", threshold*100)
	}
	return nil
}
