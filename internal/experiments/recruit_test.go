package experiments

import (
	"context"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/topo"
)

func TestPlanRecruitmentBasics(t *testing.T) {
	tx := energy.DefaultTxModel() // d* ≈ 31.6 m
	mob := energy.MobilityModel{K: 0.5}
	// Endpoints 100 m apart with idle nodes scattered nearby.
	pos := []geom.Point{
		geom.Pt(0, 0),   // src
		geom.Pt(100, 0), // dst
		geom.Pt(30, 5),  // near slot 1
		geom.Pt(70, -5), // near slot 2
		geom.Pt(50, 40), // farther
	}
	plan, err := PlanRecruitment(tx, mob, pos, 0, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal hop count for 100 m at d*≈31.6 is 3 → 2 interior slots.
	if len(plan.Slots) != 2 {
		t.Fatalf("slots = %d, want 2 (%v)", len(plan.Slots), plan.Slots)
	}
	if len(plan.Relays) != 2 {
		t.Fatalf("relays = %v", plan.Relays)
	}
	// The two nearby nodes are the cheapest recruits.
	want := map[int]bool{2: true, 3: true}
	for _, id := range plan.Relays {
		if !want[id] {
			t.Errorf("recruited %v, want nodes 2 and 3", plan.Relays)
		}
	}
	// Deploy cost equals the summed per-relay costs.
	var sum float64
	for _, c := range plan.PerRelayCost {
		sum += c
	}
	if diff := plan.DeployCost - sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("DeployCost %v != sum %v", plan.DeployCost, sum)
	}
}

func TestPlanRecruitmentRangeConstraint(t *testing.T) {
	// Endpoints 500 m apart with range 200: at least ceil(500/190) = 3
	// hops → 2 slots, regardless of the energy optimum.
	tx := energy.TxModel{A: 1e-4, B: 1e-10, Alpha: 2} // huge A → optimum wants 1 hop
	mob := energy.MobilityModel{K: 0.5}
	pos := []geom.Point{
		geom.Pt(0, 0), geom.Pt(500, 0),
		geom.Pt(100, 10), geom.Pt(250, 10), geom.Pt(400, 10),
	}
	plan, err := PlanRecruitment(tx, mob, pos, 0, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Slots) < 2 {
		t.Fatalf("slots = %d, want >= 2 to satisfy range", len(plan.Slots))
	}
	// All hops must fit the range.
	chain := append([]geom.Point{pos[0]}, plan.Slots...)
	chain = append(chain, pos[1])
	for i := 1; i < len(chain); i++ {
		if d := chain[i-1].Dist(chain[i]); d > 200 {
			t.Errorf("hop %d length %v exceeds range", i, d)
		}
	}
}

func TestPlanRecruitmentDirectHop(t *testing.T) {
	tx := energy.TxModel{A: 1e-4, B: 1e-10, Alpha: 2} // big A: 1 hop optimal
	mob := energy.MobilityModel{K: 0.5}
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(25, 5)}
	plan, err := PlanRecruitment(tx, mob, pos, 0, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Slots) != 0 || len(plan.Relays) != 0 {
		t.Errorf("short flow should use a direct hop: %+v", plan)
	}
}

func TestPlanRecruitmentValidation(t *testing.T) {
	tx := energy.DefaultTxModel()
	mob := energy.MobilityModel{K: 0.5}
	pos := []geom.Point{geom.Pt(0, 0), geom.Pt(400, 0)}
	if _, err := PlanRecruitment(tx, mob, pos, 0, 0, 200); err == nil {
		t.Error("src == dst should error")
	}
	if _, err := PlanRecruitment(tx, mob, pos, 0, 5, 200); err == nil {
		t.Error("bad endpoint should error")
	}
	if _, err := PlanRecruitment(tx, mob, pos, 0, 1, 0); err == nil {
		t.Error("zero range should error")
	}
	// No candidates for the needed slots.
	if _, err := PlanRecruitment(tx, mob, pos, 0, 1, 200); err == nil {
		t.Error("no candidates should error")
	}
}

func TestRunRelayRecruitment(t *testing.T) {
	p, err := ParamsFig6("c") // long flows: recruitment should pay
	if err != nil {
		t.Fatal(err)
	}
	p.Flows = 6
	p.MaxFlowBits = 2 * p.MeanFlowBits
	res, err := RunRelayRecruitmentCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows)+res.Skipped != p.Flows {
		t.Fatalf("rows %d + skipped %d != %d", len(res.Rows), res.Skipped, p.Flows)
	}
	if len(res.Rows) == 0 {
		t.Fatal("every instance skipped")
	}
	// The recruitment economics have a crossover: deployment amortizes
	// only on long enough flows. Above ~1.5e8 bits the recruited optimal
	// chain must beat the baseline; well below, the deployment cost must
	// dominate.
	for _, row := range res.Rows {
		ratio := row.Recruited / row.Baseline
		if row.FlowBits >= 1.5e8 && ratio >= 1 {
			t.Errorf("flow %.2g bits: recruited ratio %v, want < 1", row.FlowBits, ratio)
		}
		if row.FlowBits <= 2e7 && ratio <= 1 {
			t.Errorf("flow %.2g bits: recruited ratio %v, want > 1 (deploy dominates)", row.FlowBits, ratio)
		}
	}
	if res.AvgDeployCost <= 0 {
		t.Error("deployment should cost energy")
	}
	for i, row := range res.Rows {
		if row.Recruited <= row.DeployCost {
			t.Errorf("row %d: total %v should include deploy %v plus transmission",
				i, row.Recruited, row.DeployCost)
		}
	}
}

func TestRecruitedChainNearAnalyticOptimum(t *testing.T) {
	// The recruited chain's transmission energy should approach the
	// analytic optimal-chain energy for its endpoint distance.
	tx := energy.DefaultTxModel()
	mob := energy.MobilityModel{K: 0.5}
	src := geom.Pt(0, 0)
	dst := geom.Pt(300, 0)
	pos := []geom.Point{src, dst}
	// Plenty of candidates along the line.
	line := topo.PlaceLine(12, geom.Pt(0, 30), geom.Pt(300, 30))
	pos = append(pos, line...)
	plan, err := PlanRecruitment(tx, mob, pos, 0, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	chain := append([]geom.Point{src}, plan.Slots...)
	chain = append(chain, dst)
	const bits = 1e6
	var chainEnergy float64
	for i := 1; i < len(chain); i++ {
		chainEnergy += tx.TxEnergy(chain[i-1].Dist(chain[i]), bits)
	}
	opt, err := mobility.OptimalChainEnergy(tx, 300, bits)
	if err != nil {
		t.Fatal(err)
	}
	if chainEnergy > opt*1.01 {
		t.Errorf("recruited chain energy %v exceeds analytic optimum %v", chainEnergy, opt)
	}
}
