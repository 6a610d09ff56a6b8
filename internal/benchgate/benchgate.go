// Package benchgate compares `go test -bench` output against a committed
// baseline and fails when a benchmark regresses past a threshold. It is
// the repository's performance ratchet: the scheduler and hot-path
// optimizations are gated by `make benchgate`, so a change that quietly
// gives the throughput back cannot land green.
//
// The comparator is deliberately small — a benchstat-style parser plus a
// directional ratio check — not a statistics suite. To absorb run-to-run
// noise it aggregates repeated samples of the same benchmark (from
// `-count=N`) by taking each side's best value, and only gates on units
// whose direction it knows (ns/op, B/op, allocs/op: lower is better;
// anything ending in "/s": higher is better). Any other unit ending in
// "/op" is a deterministic work count (say, beacon-scans/op) and is
// gated exactly: a count cannot flake, so any difference from the
// baseline, either way, fails. Unknown units such as informational gauge
// metrics are ignored.
package benchgate

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark: its name (with the -N GOMAXPROCS
// suffix stripped) and every metric's samples across repeated runs.
type Result struct {
	Name string
	// Samples holds each reported value keyed by unit, one entry per
	// -count repetition.
	Samples map[string][]float64
}

// Set is a parsed benchmark output file.
type Set struct {
	Results map[string]*Result
	// Order preserves first-appearance order for stable reports.
	Order []string
}

// Parse reads `go test -bench` output. Non-benchmark lines (goos/goarch
// headers, PASS, ok, warnings) are skipped. It is an error for the input
// to contain no benchmark lines at all — an empty baseline would make
// every gate pass vacuously.
func Parse(r io.Reader) (*Set, error) {
	set := &Set{Results: make(map[string]*Result)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A benchmark line is: name, iteration count, then value/unit
		// pairs. Anything shorter is a header like "BenchmarkFoo" alone
		// (goos line wrapping) and is skipped.
		if len(fields) < 4 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count; not a result line
		}
		name := stripProcSuffix(fields[0])
		if (len(fields)-2)%2 != 0 {
			return nil, fmt.Errorf("benchgate: line %d: odd value/unit pairing in %q", lineNo, line)
		}
		res, ok := set.Results[name]
		if !ok {
			res = &Result{Name: name, Samples: make(map[string][]float64)}
			set.Results[name] = res
			set.Order = append(set.Order, name)
		}
		for i := 2; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: line %d: bad value %q: %v", lineNo, fields[i], err)
			}
			unit := fields[i+1]
			res.Samples[unit] = append(res.Samples[unit], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: reading input: %w", err)
	}
	if len(set.Results) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark results found in input")
	}
	return set, nil
}

// stripProcSuffix removes the trailing -N GOMAXPROCS marker go test
// appends to benchmark names (BenchmarkFoo-8 → BenchmarkFoo), so runs
// from machines with different core counts compare.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// direction classifies a unit: -1 when lower is better (times, bytes,
// allocations), +1 when higher is better (rates), 0 when the unit is
// informational and must not gate (e.g. a "workers" gauge).
func direction(unit string) int {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return -1
	}
	if strings.HasSuffix(unit, "/s") {
		return 1
	}
	return 0
}

// isCount reports whether unit is a deterministic work count: a custom
// per-op unit, gated exactly.
func isCount(unit string) bool {
	return direction(unit) == 0 && strings.HasSuffix(unit, "/op")
}

// countDelta compares a work count's samples: every sample, baseline and
// current, must equal the baseline's first. New is the first sample that
// does not (the current run's first when all agree), and WorseBy its
// relative difference in either direction.
func countDelta(name, unit string, base, cur []float64) Delta {
	d := Delta{Name: name, Unit: unit, Old: base[0], New: cur[0]}
	for _, samples := range [][]float64{base, cur} {
		for _, v := range samples {
			if v != d.Old {
				d.New, d.WorseBy = v, math.Abs(worseBy(d.Old, v, -1))
				return d
			}
		}
	}
	return d
}

// best aggregates repeated samples into the side's most favorable value:
// the minimum when lower is better, the maximum when higher is better.
// Gating best-vs-best keeps one noisy outlier sample from failing (or
// masking) a regression.
func best(samples []float64, dir int) float64 {
	out := samples[0]
	for _, v := range samples[1:] {
		if (dir < 0 && v < out) || (dir > 0 && v > out) {
			out = v
		}
	}
	return out
}

// Delta is one compared (benchmark, unit) pair.
type Delta struct {
	Name string
	Unit string
	Old  float64
	New  float64
	// WorseBy is the fractional slowdown: +0.25 means the new value is
	// 25% worse than baseline regardless of the unit's direction;
	// negative values are improvements.
	WorseBy float64
}

// Report is the outcome of comparing a current run against a baseline.
type Report struct {
	Threshold    float64
	Regressions  []Delta
	Improvements []Delta
	Unchanged    []Delta
	// MissingInNew lists baseline benchmarks absent from the current run
	// (renamed or deleted — the gate fails on these, since silently
	// dropping a gated benchmark is itself a regression).
	MissingInNew []string
	// OnlyInNew lists current benchmarks without a baseline entry;
	// informational, they start gating once the baseline is refreshed.
	OnlyInNew []string
}

// Compare evaluates cur against base. threshold is the tolerated
// fractional slowdown (0.10 = 10%).
func Compare(base, cur *Set, threshold float64) (*Report, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("benchgate: non-positive threshold %v", threshold)
	}
	rep := &Report{Threshold: threshold}
	for _, name := range base.Order {
		b := base.Results[name]
		c, ok := cur.Results[name]
		if !ok {
			rep.MissingInNew = append(rep.MissingInNew, name)
			continue
		}
		units := make([]string, 0, len(b.Samples))
		for unit := range b.Samples {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			cs, ok := c.Samples[unit]
			if !ok {
				continue
			}
			if isCount(unit) {
				if d := countDelta(name, unit, b.Samples[unit], cs); d.WorseBy != 0 {
					rep.Regressions = append(rep.Regressions, d)
				} else {
					rep.Unchanged = append(rep.Unchanged, d)
				}
				continue
			}
			dir := direction(unit)
			if dir == 0 {
				continue
			}
			oldV := best(b.Samples[unit], dir)
			newV := best(cs, dir)
			d := Delta{Name: name, Unit: unit, Old: oldV, New: newV, WorseBy: worseBy(oldV, newV, dir)}
			switch {
			case d.WorseBy > threshold:
				rep.Regressions = append(rep.Regressions, d)
			case d.WorseBy < -threshold:
				rep.Improvements = append(rep.Improvements, d)
			default:
				rep.Unchanged = append(rep.Unchanged, d)
			}
		}
	}
	for _, name := range cur.Order {
		if _, ok := base.Results[name]; !ok {
			rep.OnlyInNew = append(rep.OnlyInNew, name)
		}
	}
	return rep, nil
}

// worseBy returns the direction-normalized fractional slowdown of newV
// relative to oldV.
func worseBy(oldV, newV float64, dir int) float64 {
	switch {
	case oldV == newV:
		return 0
	case oldV == 0 || newV == 0:
		// A zero on either side of a nonzero value (e.g. allocs/op
		// going 0 → 3) is an unbounded change; saturate rather than
		// divide by zero.
		if dir < 0 && newV > oldV || dir > 0 && newV < oldV {
			return 1e9
		}
		return -1e9
	case dir < 0:
		return newV/oldV - 1
	default:
		return oldV/newV - 1
	}
}

// Failed reports whether the gate should fail the build.
func (r *Report) Failed() bool {
	return len(r.Regressions) > 0 || len(r.MissingInNew) > 0
}

// String renders the report as a human-readable table.
func (r *Report) String() string {
	var sb strings.Builder
	section := func(title string, ds []Delta) {
		if len(ds) == 0 {
			return
		}
		fmt.Fprintf(&sb, "%s:\n", title)
		for _, d := range ds {
			fmt.Fprintf(&sb, "  %-44s %-10s %14.4g -> %-14.4g (%+.1f%%)\n",
				d.Name, d.Unit, d.Old, d.New, d.WorseBy*100)
		}
	}
	section("REGRESSIONS (worse than baseline)", r.Regressions)
	if len(r.MissingInNew) > 0 {
		sb.WriteString("MISSING from current run (present in baseline):\n")
		for _, n := range r.MissingInNew {
			fmt.Fprintf(&sb, "  %s\n", n)
		}
	}
	section("improvements", r.Improvements)
	section("within threshold", r.Unchanged)
	if len(r.OnlyInNew) > 0 {
		sb.WriteString("new benchmarks (no baseline yet):\n")
		for _, n := range r.OnlyInNew {
			fmt.Fprintf(&sb, "  %s\n", n)
		}
	}
	if r.Failed() {
		fmt.Fprintf(&sb, "FAIL: %d regression(s), %d missing, threshold %.0f%%\n",
			len(r.Regressions), len(r.MissingInNew), r.Threshold*100)
	} else {
		fmt.Fprintf(&sb, "ok: no regressions past %.0f%% threshold\n", r.Threshold*100)
	}
	return sb.String()
}
