package experiments

import "testing"

// TestRunScalingSmall runs a scaled-down sweep and checks the table
// shape, the throughput figures, and the cross-procs agreement the driver
// enforces internally.
func TestRunScalingSmall(t *testing.T) {
	p := ParamsScaling()
	p.Nodes = []int{500, 1500}
	p.Procs = []int{1, 2}
	p.Horizon = 2e4
	res, err := RunScaling(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Cells), len(p.Nodes)*len(p.Procs); got != want {
		t.Fatalf("got %d cells, want %d", got, want)
	}
	byRung := map[int][]ScalingCell{}
	for _, c := range res.Cells {
		if c.WallSeconds <= 0 || c.SimSeconds <= 0 || c.NodeSimPerWall <= 0 {
			t.Errorf("cell %+v has non-positive timing", c)
		}
		if c.Flows < 1 || c.Completed < 0.5 {
			t.Errorf("cell n=%d procs=%d: %d flows, completed %.2f — workload not exercising traffic",
				c.Nodes, c.Procs, c.Flows, c.Completed)
		}
		byRung[c.Nodes] = append(byRung[c.Nodes], c)
	}
	for n, cells := range byRung {
		for _, c := range cells[1:] {
			if c.TotalJ != cells[0].TotalJ {
				t.Errorf("rung n=%d: energy diverged across procs settings: %v vs %v", n, c.TotalJ, cells[0].TotalJ)
			}
		}
	}
}

// TestRunScalingRejectsEmptySweep pins the validation path.
func TestRunScalingRejectsEmptySweep(t *testing.T) {
	if _, err := RunScaling(ScalingParams{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := RunScaling(ScalingParams{Nodes: []int{100}, Procs: []int{0}}); err == nil {
		t.Fatal("procs 0 accepted")
	}
}
