package experiments

import (
	"context"
	"encoding/json"
	"testing"
)

// The golden determinism contract: every experiment driver produces
// byte-identical marshaled results whether its Monte-Carlo trials run
// serially or fanned out over 8 workers, and two serial runs of the same
// seed are byte-identical too (locking in the (Seed, trialIndex) seed
// derivation — any draw-order dependence between trials would break it).

// marshal renders a result for byte comparison.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertDeterminism runs fn at concurrency 1 twice and at 8 once and
// requires all three marshaled results to match byte for byte.
func assertDeterminism(t *testing.T, name string, fn func(concurrency int) (any, error)) {
	t.Helper()
	serialA, err := fn(1)
	if err != nil {
		t.Fatalf("%s serial run A: %v", name, err)
	}
	serialB, err := fn(1)
	if err != nil {
		t.Fatalf("%s serial run B: %v", name, err)
	}
	parallel, err := fn(8)
	if err != nil {
		t.Fatalf("%s parallel run: %v", name, err)
	}
	a, b, p := marshal(t, serialA), marshal(t, serialB), marshal(t, parallel)
	if string(a) != string(b) {
		t.Errorf("%s: two serial runs of the same seed differ:\n%s\nvs\n%s", name, a, b)
	}
	if string(a) != string(p) {
		t.Errorf("%s: parallel (8 workers) differs from serial:\n%s\nvs\n%s", name, a, p)
	}
}

// detParams returns a configuration small enough to run the full driver
// set serially three times over.
func detParams(t *testing.T, variant string) Params {
	t.Helper()
	p, err := ParamsFig6(variant)
	if err != nil {
		t.Fatal(err)
	}
	p.Flows = 6
	p.MaxFlowBits = 2 * p.MeanFlowBits
	return p
}

func TestDeterminismGenInstances(t *testing.T) {
	assertDeterminism(t, "GenInstances", func(c int) (any, error) {
		p := detParams(t, "a")
		p.Flows = 16
		p.Concurrency = c
		return GenInstancesCtx(context.Background(), p)
	})
}

func TestDeterminismFig6(t *testing.T) {
	assertDeterminism(t, "RunFig6", func(c int) (any, error) {
		p := detParams(t, "a")
		p.Concurrency = c
		return RunFig6Ctx(context.Background(), p, "a")
	})
}

func TestDeterminismFig6LongFlows(t *testing.T) {
	assertDeterminism(t, "RunFig6Ctx(context.Background(), c)", func(c int) (any, error) {
		p := detParams(t, "c")
		p.Concurrency = c
		return RunFig6Ctx(context.Background(), p, "c")
	})
}

func TestDeterminismFig6b(t *testing.T) {
	assertDeterminism(t, "RunFig6b", func(c int) (any, error) {
		p := detParams(t, "a")
		p.Concurrency = c
		return RunFig6bCtx(context.Background(), p)
	})
}

func TestDeterminismFig7(t *testing.T) {
	assertDeterminism(t, "RunFig7", func(c int) (any, error) {
		p := ParamsFig7()
		p.Flows = 6
		p.MaxFlowBits = 2 * p.MeanFlowBits
		p.Concurrency = c
		return RunFig7Ctx(context.Background(), p)
	})
}

func TestDeterminismFig8(t *testing.T) {
	assertDeterminism(t, "RunFig8", func(c int) (any, error) {
		p := ParamsFig8()
		p.Flows = 6
		p.MaxFlowBits = 2 * p.MeanFlowBits
		p.Concurrency = c
		return RunFig8Ctx(context.Background(), p)
	})
}

func TestDeterminismFig5(t *testing.T) {
	// Fig 5 is a single-trial driver; determinism still must hold
	// through the shared instance generator.
	assertDeterminism(t, "RunFig5", func(c int) (any, error) {
		p := baseParams()
		p.Concurrency = c
		return RunFig5(p)
	})
}

func TestDeterminismRelayRecruitment(t *testing.T) {
	assertDeterminism(t, "RunRelayRecruitment", func(c int) (any, error) {
		p := detParams(t, "c")
		p.Flows = 4
		p.Concurrency = c
		return RunRelayRecruitmentCtx(context.Background(), p)
	})
}

func TestDeterminismThresholdSweep(t *testing.T) {
	assertDeterminism(t, "RunThresholdSweep", func(c int) (any, error) {
		p := detParams(t, "c")
		p.Flows = 3
		p.Concurrency = c
		return RunThresholdSweepCtx(context.Background(), p, []float64{8e4, 8e7})
	})
}

func TestDeterminismMultiFlow(t *testing.T) {
	assertDeterminism(t, "RunMultiFlow", func(c int) (any, error) {
		p := detParams(t, "a")
		p.Flows = 3
		p.Concurrency = c
		return RunMultiFlowCtx(context.Background(), p, 2)
	})
}

// TestRaceExperimentsParallelSweep gives the race detector a real
// end-to-end parallel sweep over the full simulation stack (topo,
// netsim, mobility, energy); `go test -race -run Race` must stay clean.
func TestRaceExperimentsParallelSweep(t *testing.T) {
	p := detParams(t, "a")
	p.Flows = 8
	p.Concurrency = 8
	if _, err := RunFig6Ctx(context.Background(), p, "a"); err != nil {
		t.Fatal(err)
	}
	p8 := ParamsFig8()
	p8.Flows = 4
	p8.MaxFlowBits = 2 * p8.MeanFlowBits
	p8.Concurrency = 8
	if _, err := RunFig8Ctx(context.Background(), p8); err != nil {
		t.Fatal(err)
	}
}
