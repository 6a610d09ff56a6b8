package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/assign"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Relay recruitment (ablation A2+, the full form of the paper's §5 future
// work "optimize both the selection and positions of the intermediate flow
// nodes"): instead of repositioning whatever relays greedy routing
// happened to pick, choose the *optimal relay slots* on the
// source–destination line (optimal count from the radio model, even
// spacing) and recruit the idle nodes that can reach those slots at
// minimum total locomotion cost — a minimum-cost assignment solved with
// the Hungarian algorithm. The recruited chain is deployed first
// (locomotion energy charged up front), then carries the flow without
// further mobility.

// RecruitmentPlan is the deployment decision for one flow.
type RecruitmentPlan struct {
	// Slots are the interior relay positions on the src–dst line.
	Slots []geom.Point
	// Relays are the recruited node IDs, in slot order.
	Relays []int
	// DeployCost is the total locomotion energy to move every recruited
	// node to its slot.
	DeployCost float64
	// PerRelayCost is the locomotion energy per recruited node, in slot
	// order.
	PerRelayCost []float64
}

// PlanRecruitment computes the optimal relay slots for a src→dst flow and
// the minimum-locomotion-cost assignment of candidate nodes to them.
// Candidates are all nodes except the endpoints. The slot count is the
// radio model's optimal hop count, raised as needed so each hop fits the
// communication range.
func PlanRecruitment(tx energy.TxModel, mob energy.MobilityModel, pos []geom.Point, src, dst int, rangeM float64) (RecruitmentPlan, error) {
	if src == dst {
		return RecruitmentPlan{}, errors.New("experiments: src == dst")
	}
	if src < 0 || src >= len(pos) || dst < 0 || dst >= len(pos) {
		return RecruitmentPlan{}, fmt.Errorf("experiments: endpoints (%d,%d) out of range", src, dst)
	}
	if rangeM <= 0 {
		return RecruitmentPlan{}, fmt.Errorf("experiments: non-positive range %v", rangeM)
	}
	D := pos[src].Dist(pos[dst])
	hops, err := mobility.OptimalRelayCount(tx, D)
	if err != nil {
		return RecruitmentPlan{}, err
	}
	// Every hop must fit the radio range (with margin for later drift).
	if minHops := int(math.Ceil(D / (0.95 * rangeM))); hops < minHops {
		hops = minHops
	}
	slots := make([]geom.Point, 0, hops-1)
	for i := 1; i < hops; i++ {
		slots = append(slots, pos[src].Lerp(pos[dst], float64(i)/float64(hops)))
	}
	if len(slots) == 0 {
		return RecruitmentPlan{Slots: nil, Relays: nil}, nil // direct hop
	}
	var candidates []int
	for id := range pos {
		if id != src && id != dst {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) < len(slots) {
		return RecruitmentPlan{}, fmt.Errorf("experiments: %d candidates for %d slots", len(candidates), len(slots))
	}
	candidates = pruneCandidates(mob, pos, candidates, slots, rangeM)
	cost := make([][]float64, len(slots))
	for i, slot := range slots {
		cost[i] = make([]float64, len(candidates))
		for j, id := range candidates {
			cost[i][j] = mob.MoveEnergy(pos[id].Dist(slot))
		}
	}
	chosen, total, err := assign.Solve(cost)
	if err != nil {
		return RecruitmentPlan{}, fmt.Errorf("experiments: assigning relays: %w", err)
	}
	plan := RecruitmentPlan{Slots: slots, DeployCost: total}
	for i, col := range chosen {
		plan.Relays = append(plan.Relays, candidates[col])
		plan.PerRelayCost = append(plan.PerRelayCost, cost[i][col])
	}
	return plan, nil
}

// pruneCandidates shrinks the Hungarian candidate set without changing
// the optimal assignment cost. A greedy nearest-available pass gives a
// feasible assignment whose total cost U upper-bounds the optimum; any
// candidate whose cheapest slot alone costs more than U can therefore
// never appear in an optimal assignment. The survivors are collected with
// a spatial grid query of radius U/k around each slot — O(s·k) instead of
// an O(s·n) distance matrix over every node — which keeps recruitment
// planning sub-quadratic on large networks. When the bound cannot prune
// (greedy infeasible, or free movement k=0 making every assignment cost
// 0) the full candidate set is returned unchanged.
func pruneCandidates(mob energy.MobilityModel, pos []geom.Point, candidates []int, slots []geom.Point, rangeM float64) []int {
	if mob.K <= 0 || len(candidates) <= len(slots) {
		return candidates
	}
	grid, err := spatial.NewGrid(rangeM)
	if err != nil {
		return candidates
	}
	for _, id := range candidates {
		grid.Insert(id, pos[id])
	}
	// Greedy feasible bound: each slot takes its nearest unused candidate.
	used := make(map[int]bool, len(slots))
	var bound float64
	for _, slot := range slots {
		best, bestD := -1, math.Inf(1)
		for _, id := range candidates {
			if used[id] {
				continue
			}
			if d := pos[id].Dist(slot); d < bestD {
				best, bestD = id, d
			}
		}
		if best < 0 {
			return candidates
		}
		used[best] = true
		bound += mob.MoveEnergy(bestD)
	}
	// Survivors: every candidate within U/k of some slot. The greedy
	// picks qualify by construction, so feasibility is preserved; the
	// tiny relative epsilon keeps exact-boundary candidates eligible
	// against floating-point noise.
	radius := bound / mob.K * (1 + 1e-12)
	keep := make(map[int]bool)
	var buf []int
	for _, slot := range slots {
		buf = grid.AppendInRange(buf[:0], slot, radius)
		for _, id := range buf {
			keep[id] = true
		}
	}
	pruned := candidates[:0]
	for _, id := range candidates {
		if keep[id] {
			pruned = append(pruned, id)
		}
	}
	return pruned
}

// RecruitmentRow is one flow instance's comparison.
type RecruitmentRow struct {
	FlowBits float64
	// Baseline is the no-mobility greedy-path energy.
	Baseline float64
	// InformedGreedy is standard iMobif on the greedy path.
	InformedGreedy float64
	// Recruited is deployment locomotion plus transmission on the
	// recruited chain.
	Recruited  float64
	DeployCost float64
	// Slots is the recruited chain's interior relay count.
	Slots int
}

// RecruitmentResult aggregates the relay-recruitment study.
type RecruitmentResult struct {
	Rows []RecruitmentRow
	// Average energy ratios over the no-mobility greedy baseline.
	AvgRatioInformedGreedy float64
	AvgRatioRecruited      float64
	AvgDeployCost          float64
	Skipped                int
	Sweep                  metrics.SweepStats `json:"-"`
}

// recruitTrial is one trial's outcome; skipped trials (no feasible plan,
// or a relay that cannot afford its deployment move) carry no row.
type recruitTrial struct {
	row     RecruitmentRow
	skipped bool
}

// RunRelayRecruitment compares, on common instances: (1) the no-mobility
// greedy baseline, (2) standard iMobif on the greedy path, and (3) the
// recruited optimal chain with up-front deployment.
func RunRelayRecruitment(p Params) (RecruitmentResult, error) {
	return RunRelayRecruitmentCtx(context.Background(), p)
}

// RunRelayRecruitmentCtx is RunRelayRecruitment with cancellation.
func RunRelayRecruitmentCtx(ctx context.Context, p Params) (RecruitmentResult, error) {
	cfg, err := p.config()
	if err != nil {
		return RecruitmentResult{}, err
	}
	trials, sw, err := sweep.Map(ctx, p.runner(), p.Flows, func(_ context.Context, trial int) (recruitTrial, error) {
		inst, err := GenInstance(p, trial)
		if err != nil {
			return recruitTrial{}, err
		}
		base, err := runMode(cfg, inst, netsim.ModeNoMobility)
		if err != nil {
			return recruitTrial{}, err
		}
		informed, err := runMode(cfg, inst, netsim.ModeInformed)
		if err != nil {
			return recruitTrial{}, err
		}
		plan, err := PlanRecruitment(p.Tx, cfg.Mobility, inst.Positions, inst.Src, inst.Dst, p.Range)
		if err != nil {
			return recruitTrial{skipped: true}, nil
		}
		recruited, ok, err := runRecruited(cfg, inst, plan)
		if err != nil {
			return recruitTrial{}, err
		}
		if !ok {
			return recruitTrial{skipped: true}, nil
		}
		return recruitTrial{row: RecruitmentRow{
			FlowBits:       inst.FlowBits,
			Baseline:       base.Energy.Total(),
			InformedGreedy: informed.Energy.Total(),
			Recruited:      recruited,
			DeployCost:     plan.DeployCost,
			Slots:          len(plan.Slots),
		}}, nil
	})
	if err != nil {
		return RecruitmentResult{}, err
	}
	res := RecruitmentResult{Sweep: sw}
	var rg, rr, dc []float64
	for _, t := range trials {
		if t.skipped {
			res.Skipped++
			continue
		}
		res.Rows = append(res.Rows, t.row)
		rg = append(rg, stats.Ratio(t.row.InformedGreedy, t.row.Baseline))
		rr = append(rr, stats.Ratio(t.row.Recruited, t.row.Baseline))
		dc = append(dc, t.row.DeployCost)
	}
	res.AvgRatioInformedGreedy = stats.Mean(rg)
	res.AvgRatioRecruited = stats.Mean(rr)
	res.AvgDeployCost = stats.Mean(dc)
	return res, nil
}

// runRecruited deploys the plan (moving recruited nodes to their slots and
// charging locomotion up front) and runs the flow over the recruited chain
// of the sweep's config without further mobility. It reports ok=false
// when a recruited node cannot afford its deployment move.
func runRecruited(cfg netsim.Config, inst Instance, plan RecruitmentPlan) (total float64, ok bool, err error) {
	positions := append([]geom.Point(nil), inst.Positions...)
	energies := append([]float64(nil), inst.Energies...)
	for i, id := range plan.Relays {
		cost := plan.PerRelayCost[i]
		if energies[id] <= cost {
			return 0, false, nil
		}
		energies[id] -= cost
		positions[id] = plan.Slots[i]
	}
	path := append([]int{inst.Src}, plan.Relays...)
	path = append(path, inst.Dst)

	cfg.Strategy, cfg.Mode = mobility.Stationary{}, netsim.ModeNoMobility
	w, err := netsim.NewWorld(cfg, positions, energies)
	if err != nil {
		return 0, false, err
	}
	if _, err := w.AddFlow(netsim.FlowSpec{
		Src: inst.Src, Dst: inst.Dst, LengthBits: inst.FlowBits, Path: path,
	}); err != nil {
		return 0, false, err
	}
	r, err := w.Run()
	if err != nil {
		return 0, false, err
	}
	return r.Energy.Total() + plan.DeployCost, true, nil
}
