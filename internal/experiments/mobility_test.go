package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/motion"
)

// smallMobility returns mobility-experiment params scaled down for test
// runtime: few short flows on a small dense field.
func smallMobility() Params {
	p := ParamsMobility()
	p.Flows = 4
	p.Nodes = 30
	p.FieldW, p.FieldH = 400, 400
	p.Range = 150
	p.MeanFlowBits = 4e5
	p.MaxFlowBits = 8e5
	p.Motion.SpeedLo, p.Motion.SpeedHi = 2, 5
	return p
}

func TestParamsMobility(t *testing.T) {
	p := ParamsMobility()
	if err := p.Validate(); err != nil {
		t.Fatalf("ParamsMobility invalid: %v", err)
	}
	if !p.StopOnFirstDeath {
		t.Error("mobility experiment should stop at first death (lifetime setting)")
	}
	if p.Motion == nil || p.Motion.ChargeBattery {
		t.Errorf("want a free-carrier motion layer, got %+v", p.Motion)
	}
}

func TestRunMobilityModels(t *testing.T) {
	res, err := RunMobilityModelsCtx(context.Background(), smallMobility())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(MobilityModels()) * len(MobilityStrategies())
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	for _, c := range res.Cells {
		if c.DeliveryRatio < 0 || c.DeliveryRatio > 1 {
			t.Errorf("%s/%s: delivery ratio %v out of [0,1]", c.Model, c.Strategy, c.DeliveryRatio)
		}
		if c.Completed < 0 || c.Completed > 1 {
			t.Errorf("%s/%s: completed fraction %v out of [0,1]", c.Model, c.Strategy, c.Completed)
		}
		if c.Lifetime <= 0 {
			t.Errorf("%s/%s: non-positive lifetime %v", c.Model, c.Strategy, c.Lifetime)
		}
		if c.MeanResidual < 0 {
			t.Errorf("%s/%s: negative residual %v", c.Model, c.Strategy, c.MeanResidual)
		}
	}
	// The stationary rows are the static deployment: every packet is
	// deliverable on the planned path, so the delivery ratio is 1 and
	// mobile models can only match it, never beat it.
	for _, strat := range MobilityStrategies() {
		st := res.Cell(motion.ModelStationary, strat)
		if st.DeliveryRatio != 1 {
			t.Errorf("stationary/%s: delivery ratio %v, want 1", strat, st.DeliveryRatio)
		}
		for _, model := range MobilityModels() {
			if c := res.Cell(model, strat); c.DeliveryRatio > st.DeliveryRatio+1e-9 {
				t.Errorf("%s/%s delivery %v beats stationary %v", model, strat, c.DeliveryRatio, st.DeliveryRatio)
			}
		}
	}
}

// TestMobilityModelsSweepDeterminism checks the concurrency-invariance
// contract: every trial draws from (Seed, trial)-derived streams only, so
// the marshaled result is byte-identical at any worker count.
func TestMobilityModelsSweepDeterminism(t *testing.T) {
	run := func(workers int) []byte {
		p := smallMobility()
		p.Concurrency = workers
		res, err := RunMobilityModelsCtx(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	if string(serial) != string(parallel) {
		t.Errorf("mobility sweep differs across concurrency:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}
