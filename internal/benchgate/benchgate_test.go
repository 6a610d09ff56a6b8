package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseFixture(t *testing.T, name string) *Set {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := Parse(f)
	if err != nil {
		t.Fatalf("Parse(%s): %v", name, err)
	}
	return set
}

func TestParseFixture(t *testing.T) {
	set := parseFixture(t, "base.txt")
	wantNames := []string{
		"BenchmarkSimulationRun",
		"BenchmarkSchedulerSteadyState",
		"BenchmarkSweep/workers=1",
		"BenchmarkSweep/workers=4",
	}
	if len(set.Order) != len(wantNames) {
		t.Fatalf("parsed %d benchmarks %v, want %d", len(set.Order), set.Order, len(wantNames))
	}
	for i, want := range wantNames {
		if set.Order[i] != want {
			t.Errorf("Order[%d] = %q, want %q", i, set.Order[i], want)
		}
	}

	// The two repeated SimulationRun lines (-count=2) aggregate into one
	// result with two samples per unit.
	run := set.Results["BenchmarkSimulationRun"]
	if got := len(run.Samples["ns/op"]); got != 2 {
		t.Errorf("SimulationRun ns/op samples = %d, want 2", got)
	}
	if run.Samples["ns/op"][0] != 14139771 {
		t.Errorf("first ns/op sample = %v, want 14139771", run.Samples["ns/op"][0])
	}

	// The -8 GOMAXPROCS suffix is stripped; sub-benchmark names and
	// custom metrics survive.
	sweep := set.Results["BenchmarkSweep/workers=4"]
	if sweep == nil {
		t.Fatal("sub-benchmark with proc suffix not parsed")
	}
	if got := sweep.Samples["trials/s"]; len(got) != 1 || got[0] != 28.01 {
		t.Errorf("trials/s samples = %v, want [28.01]", got)
	}
	if got := sweep.Samples["workers"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("workers samples = %v, want [4]", got)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("goos: linux\nPASS\nok repro 1s\n")); err == nil {
		t.Fatal("expected error for input with no benchmark lines")
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := parseFixture(t, "base.txt")
	cur := parseFixture(t, "ok.txt")
	rep, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("gate failed on a within-threshold run:\n%s", rep)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("regressions = %v, want none", rep.Regressions)
	}
}

func TestCompareSyntheticRegressionFails(t *testing.T) {
	base := parseFixture(t, "base.txt")
	cur := parseFixture(t, "regress.txt")
	rep, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatalf("gate passed a 2x regression:\n%s", rep)
	}
	// Every gated unit of SimulationRun regressed, the throughput metric
	// regressed in its own (higher-is-better) direction, and the
	// steady-state allocs going 0 -> 2 is caught despite the zero
	// baseline.
	wantRegressed := map[string]bool{
		"BenchmarkSimulationRun|ns/op":            true,
		"BenchmarkSimulationRun|B/op":             true,
		"BenchmarkSimulationRun|allocs/op":        true,
		"BenchmarkSchedulerSteadyState|ns/op":     true,
		"BenchmarkSchedulerSteadyState|B/op":      true,
		"BenchmarkSchedulerSteadyState|allocs/op": true,
		"BenchmarkSweep/workers=1|trials/s":       true,
		"BenchmarkSweep/workers=4|trials/s":       true,
		"BenchmarkSweep/workers=1|ns/op":          true,
		"BenchmarkSweep/workers=4|ns/op":          true,
	}
	for _, d := range rep.Regressions {
		key := d.Name + "|" + d.Unit
		if !wantRegressed[key] {
			t.Errorf("unexpected regression %s", key)
		}
		delete(wantRegressed, key)
		if d.WorseBy <= 0.10 {
			t.Errorf("%s: WorseBy = %v, want > threshold", key, d.WorseBy)
		}
	}
	for key := range wantRegressed {
		t.Errorf("regression not reported: %s", key)
	}
	// The informational "workers" gauge must never gate.
	for _, d := range append(append(rep.Regressions, rep.Improvements...), rep.Unchanged...) {
		if d.Unit == "workers" {
			t.Errorf("gauge unit %q was gated: %+v", d.Unit, d)
		}
	}
	if !strings.Contains(rep.String(), "REGRESSIONS") {
		t.Errorf("report does not call out regressions:\n%s", rep)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := parseFixture(t, "base.txt")
	cur, err := Parse(strings.NewReader(
		"BenchmarkSimulationRun 	 20	 14139771 ns/op	 264616 B/op	 1294 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("gate passed with baseline benchmarks missing from the run")
	}
	if len(rep.MissingInNew) != 3 {
		t.Errorf("MissingInNew = %v, want the 3 dropped benchmarks", rep.MissingInNew)
	}
}

func TestCompareOnlyInNewIsInformational(t *testing.T) {
	base := parseFixture(t, "base.txt")
	cur := parseFixture(t, "ok.txt")
	extra, err := Parse(strings.NewReader(
		"BenchmarkBrandNew 	 10	 123456 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	cur.Results["BenchmarkBrandNew"] = extra.Results["BenchmarkBrandNew"]
	cur.Order = append(cur.Order, "BenchmarkBrandNew")
	rep, err := Compare(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("a new benchmark without baseline failed the gate:\n%s", rep)
	}
	if len(rep.OnlyInNew) != 1 || rep.OnlyInNew[0] != "BenchmarkBrandNew" {
		t.Errorf("OnlyInNew = %v, want [BenchmarkBrandNew]", rep.OnlyInNew)
	}
}

func TestCompareRejectsBadThreshold(t *testing.T) {
	base := parseFixture(t, "base.txt")
	if _, err := Compare(base, base, 0); err == nil {
		t.Fatal("expected error for zero threshold")
	}
}

// TestCompareCountsExact pins that a custom per-op unit is a work count
// gated exactly: any difference from the baseline fails, however small
// and in either direction, as does a baseline that itself varies, while
// equal counts pass.
func TestCompareCountsExact(t *testing.T) {
	const base = "BenchmarkJob 	 10	 5000000 ns/op	 38634 beacon-scans/op	 2.5 nbrs/node\n"
	cases := []struct {
		name, base, cur string
		fail            bool
	}{
		{"equal", base, base, false},
		{"one more", base, "BenchmarkJob 	 10	 5000000 ns/op	 38635 beacon-scans/op	 2.5 nbrs/node\n", true},
		{"fewer", base, "BenchmarkJob 	 10	 5000000 ns/op	 30000 beacon-scans/op	 2.5 nbrs/node\n", true},
		{"to zero", base, "BenchmarkJob 	 10	 5000000 ns/op	 0 beacon-scans/op	 2.5 nbrs/node\n", true},
		{"varying baseline", base + "BenchmarkJob 	 10	 5000000 ns/op	 38600 beacon-scans/op	 2.5 nbrs/node\n", base, true},
		{"gauge ignored", base, "BenchmarkJob 	 10	 5000000 ns/op	 38634 beacon-scans/op	 9 nbrs/node\n", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := Parse(strings.NewReader(c.base))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := Parse(strings.NewReader(c.cur))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Compare(b, cur, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() != c.fail {
				t.Fatalf("Failed() = %v, want %v:\n%s", rep.Failed(), c.fail, rep)
			}
			for _, d := range rep.Regressions {
				if d.Unit != "beacon-scans/op" {
					t.Errorf("unexpected regression %+v", d)
				}
			}
		})
	}
}

func TestDirection(t *testing.T) {
	cases := []struct {
		unit string
		want int
	}{
		{"ns/op", -1},
		{"B/op", -1},
		{"allocs/op", -1},
		{"trials/s", 1},
		{"MB/s", 1},
		{"workers", 0},
		{"nodes", 0},
	}
	for _, c := range cases {
		if got := direction(c.unit); got != c.want {
			t.Errorf("direction(%q) = %d, want %d", c.unit, got, c.want)
		}
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":          "BenchmarkFoo",
		"BenchmarkFoo":            "BenchmarkFoo",
		"BenchmarkFoo/bar=2-16":   "BenchmarkFoo/bar=2",
		"BenchmarkFoo/sub-case":   "BenchmarkFoo/sub-case",
		"BenchmarkFoo/sub-case-4": "BenchmarkFoo/sub-case",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}
