package experiments

import (
	"context"
	"encoding/json"
	"testing"
)

// smallStrategies returns comparison params scaled down for test
// runtime: few short flows on a small dense field.
func smallStrategies() Params {
	p := ParamsStrategies()
	p.Flows = 3
	p.Nodes = 30
	p.FieldW, p.FieldH = 400, 400
	p.Range = 150
	p.MeanFlowBits = 4e5
	p.MaxFlowBits = 8e5
	return p
}

func TestParamsStrategies(t *testing.T) {
	p := ParamsStrategies()
	if err := p.Validate(); err != nil {
		t.Fatalf("ParamsStrategies invalid: %v", err)
	}
	if !p.StopOnFirstDeath {
		t.Error("comparison should stop at first death (lifetime setting)")
	}
	if p.EnergyTiers < 2 {
		t.Errorf("want a heterogeneous energy population, got %d tiers", p.EnergyTiers)
	}
}

func TestRunStrategyComparison(t *testing.T) {
	res, err := RunStrategyComparisonCtx(context.Background(), smallStrategies())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) < 5 {
		t.Fatalf("comparison covers %d strategies, want at least 5: %v",
			len(res.Strategies), res.Strategies)
	}
	if len(res.Regimes) != 2 {
		t.Fatalf("regimes %v, want zero-fault and loss-0.1", res.Regimes)
	}
	wantCells := len(res.Strategies) * len(res.Regimes)
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, c := range res.Cells {
		if c.DeliveryRatio < 0 || c.DeliveryRatio > 1 {
			t.Errorf("%s/%s: delivery ratio %v out of [0,1]", c.Strategy, c.Regime, c.DeliveryRatio)
		}
		if c.Completed < 0 || c.Completed > 1 {
			t.Errorf("%s/%s: completed fraction %v out of [0,1]", c.Strategy, c.Regime, c.Completed)
		}
		if c.Lifetime <= 0 {
			t.Errorf("%s/%s: non-positive lifetime %v", c.Strategy, c.Regime, c.Lifetime)
		}
		if c.TotalJ < c.TxJ || c.TotalJ < c.MoveJ {
			t.Errorf("%s/%s: total %v below a component (tx %v, move %v)",
				c.Strategy, c.Regime, c.TotalJ, c.TxJ, c.MoveJ)
		}
	}
	// Stationary strategies never spend movement energy, in any regime.
	for _, reg := range res.Regimes {
		for _, name := range []string{"stationary", "max-lifetime-routing"} {
			if c := res.Cell(name, reg); c.MoveJ != 0 {
				t.Errorf("%s/%s: stationary strategy moved %v J", name, reg, c.MoveJ)
			}
		}
	}
	// The ideal channel delivers everything.
	for _, name := range res.Strategies {
		if c := res.Cell(name, "zero-fault"); c.DeliveryRatio != 1 {
			t.Errorf("%s/zero-fault: delivery ratio %v, want 1", name, c.DeliveryRatio)
		}
	}
	// CSV carries the header plus one row per cell.
	csv := res.CSV()
	if len(csv) != wantCells+1 {
		t.Fatalf("CSV has %d rows, want %d", len(csv), wantCells+1)
	}
	if csv[0][0] != "strategy" || csv[0][1] != "regime" {
		t.Errorf("CSV header %v", csv[0])
	}
}

// TestStrategyComparisonSweepDeterminism checks the concurrency
// invariance contract: the marshaled table is byte-identical at any
// worker count.
func TestStrategyComparisonSweepDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		t.Helper()
		p := smallStrategies()
		p.Flows = 2
		p.Concurrency = workers
		res, err := RunStrategyComparisonCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial, parallel := run(1), run(4)
	if string(serial) != string(parallel) {
		t.Errorf("serial and parallel comparison results differ:\n%s\n%s", serial, parallel)
	}
}
