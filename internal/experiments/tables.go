package experiments

// Presentation: every driver result renders through one table schema, so
// the text a figure prints and the CSV it writes come from the same
// columns and rows.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// bitsPerKB is the kilobyte of the flow-length parameters (8e4 bits is
// 10 KB): 1,000 bytes.
const bitsPerKB = 8000

// recruitLongFlowBits splits the recruitment table: deployment is paid
// up front, so it amortizes only on flows at least this long (150 Mbit).
const recruitLongFlowBits = 1.5e8

// Table is a driver result in presentation form.
type Table struct {
	// Name is the CSV file stem.
	Name string
	// Title heads the text rendering.
	Title   string
	Columns []Column
	// Rows hold one value per column: a float64, an int or a string.
	Rows [][]any
	// Summary lines follow the rows in the text rendering: the driver's
	// paper-labelled averages and notes on its setup.
	Summary []string
	// Sweep is the driver's execution metadata (zero when it has none).
	Sweep metrics.SweepStats
}

// Column is one column of a Table. The CSV carries a float value with
// six significant digits in the column's own unit; the text rendering
// scales it into a reading unit with fixed decimals.
type Column struct {
	// Name heads the CSV column.
	Name string
	// Label heads the text column; empty means Name.
	Label string
	// Digits is the number of decimals the text prints a float with.
	Digits int
	// Scale converts a float value into the text unit; 0 means 1.
	Scale float64
}

// col is a column without a unit conversion.
func col(name, label string, digits int) Column {
	return Column{Name: name, Label: label, Digits: digits}
}

// flowKB is the flow-length column: bits in the CSV, KB in the text.
var flowKB = Column{Name: "flow_bits", Label: "flow(KB)", Scale: 1.0 / bitsPerKB}

// CSV returns the table as CSV records, header first.
func (t Table) CSV() [][]string { return t.cells(false) }

// Text returns the table as text cells, header labels first.
func (t Table) Text() [][]string { return t.cells(true) }

func (t Table) cells(text bool) [][]string {
	out := make([][]string, 1+len(t.Rows))
	for _, c := range t.Columns {
		head := c.Name
		if text && c.Label != "" {
			head = c.Label
		}
		out[0] = append(out[0], head)
	}
	for r, row := range t.Rows {
		for i, v := range row {
			out[r+1] = append(out[r+1], t.Columns[i].format(v, text))
		}
	}
	return out
}

// format renders one value of the column; text selects the text
// rendering over the CSV one.
func (c Column) format(v any, text bool) string {
	f, ok := v.(float64)
	if !ok {
		return fmt.Sprint(v)
	}
	if !text {
		return strconv.FormatFloat(f, 'g', 6, 64)
	}
	if c.Scale != 0 {
		f *= c.Scale
	}
	return strconv.FormatFloat(f, 'f', c.Digits, 64)
}

// newTable starts a table with no rows.
func newTable(name, title string, cols ...Column) Table {
	return Table{Name: name, Title: title, Columns: cols}
}

// add appends one row.
func (t *Table) add(row ...any) { t.Rows = append(t.Rows, row) }

// note appends one formatted summary line.
func (t *Table) note(format string, args ...any) {
	t.Summary = append(t.Summary, fmt.Sprintf(format, args...))
}

// Table renders the three path views node by node.
func (r Fig5Result) Table() Table {
	t := newTable("fig5", "Figure 5: effect of controlled mobility on a flow path",
		col("node", "", 0), col("energy", "energy(J)", 1),
		col("orig_x", "", 1), col("orig_y", "", 1),
		col("minE_x", "", 1), col("minE_y", "", 1),
		col("maxL_x", "", 1), col("maxL_y", "", 1))
	for i, o := range r.Original {
		minE, maxL := r.MinEnergy[i], r.MaxLifetime[i]
		t.add(i, r.Energies[i], o.X, o.Y, minE.X, minE.Y, maxL.X, maxL.Y)
	}
	t.note("(node size in the paper's plot ∝ residual energy; shown here as J)")
	t.note("collinearity (max off-line distance, m): original %.1f  min-energy %.2f  max-lifetime %.2f",
		r.OrigCollinearity, r.MinECollinearity, r.MaxLCollinearity)
	t.note("spacing cv: original %.3f  min-energy %.4f (even spacing)", r.OrigSpacingCV, r.MinESpacingCV)
	t.note("Theorem 1 check, cv of P(d_i)/e_i at max-lifetime steady state: %.3f (0 = optimal)", r.PowerEnergyRatioCV)
	return t
}

// Table renders the panel's per-flow ratios and the legend averages.
func (r Fig6Result) Table() Table {
	p := r.Params
	t := newTable("fig6"+r.Variant,
		fmt.Sprintf("Figure 6(%s): energy consumption ratio (k=%v, α=%v, mean flow %.0f KB, %d flows)",
			r.Variant, p.K, p.Tx.Alpha, p.MeanFlowBits/bitsPerKB, len(r.Rows)),
		flowKB, col("baseline_joules", "baseline(J)", 2),
		col("ratio_cost_unaware", "cost-unaware", 3), col("ratio_imobif", "imobif", 3))
	for _, row := range r.Rows {
		t.add(row.FlowBits, row.Baseline.Total(), row.RatioCostUnaware, row.RatioInformed)
	}
	t.note("Cost-Unaware: Average: %.3f   iMobif: Average: %.3f", r.AvgRatioCostUnaware, r.AvgRatioInformed)
	t.Sweep = r.Sweep
	return t
}

// Table renders the cost-unaware energy split per flow.
func (r Fig6bResult) Table() Table {
	t := newTable("fig6b",
		fmt.Sprintf("Figure 6(b): mobility vs transmission energy, cost-unaware, short flows (%d flows)", len(r.Rows)),
		flowKB, col("mobility_joules", "mobility(J)", 2), col("transmission_joules", "transmission(J)", 3))
	for _, row := range r.Rows {
		t.add(row.FlowBits, row.CostUnaware.Move, row.CostUnaware.Tx)
	}
	t.note("Mobility Energy Consumption: Average: %.2f J   Transmission: Average: %.3f J", r.AvgMobility, r.AvgTransmission)
	t.Sweep = r.Sweep
	return t
}

// Table renders the notification count of every flow.
func (r Fig7Result) Table() Table {
	t := newTable("fig7", fmt.Sprintf("Figure 7: notification packets per flow (%d flows)", len(r.Counts)),
		col("flow", "", 0), col("notifications", "", 0))
	for i, c := range r.Counts {
		t.add(i, c)
	}
	t.note("Number of Notifications: Average: %.2f  Max: %d", r.Avg, r.Max)
	t.Sweep = r.Sweep
	return t
}

// Table renders both lifetime-ratio CDFs point by point.
func (r Fig8Result) Table() Table {
	p := r.Params
	t := newTable("fig8",
		fmt.Sprintf("Figure 8: CDF of system lifetime ratio (k=%v, α=%v, energy U[%v,%v] J, %d flows)",
			p.K, p.Tx.Alpha, p.EnergyLo, p.EnergyHi, len(r.Rows)),
		col("cu_ratio", "cost-unaware ratio", 3), col("cu_cdf", "CDF", 2),
		col("inf_ratio", "informed ratio", 3), col("inf_cdf", "CDF", 2))
	for i, inf := range r.CDFInformed {
		cu := r.CDFCostUnaware[i]
		t.add(cu[0], cu[1], inf[0], inf[1])
	}
	t.note("Cost-Unaware: Average %.3f   Informed: Average %.3f (max %.2f)",
		r.AvgRatioCostUnaware, r.AvgRatioInformed, r.MaxRatioInformed)
	t.Sweep = r.Sweep
	return t
}

// deliveryColumns are the per-cell columns the mobility and strategy
// tables share.
var deliveryColumns = []Column{
	col("delivery_ratio", "delivery", 3), col("completed", "", 2),
	col("lifetime_s", "lifetime(s)", 1), col("mean_residual_j", "residual(J)", 1),
}

// Table renders one row per (model, strategy) cell.
func (r MobilityResult) Table() Table {
	p := r.Params
	t := newTable("mobility",
		fmt.Sprintf("Extension: ambient mobility models × strategies (k=%v, energy U[%v,%v] J, %d flows/cell)",
			p.K, p.EnergyLo, p.EnergyHi, p.Flows),
		append([]Column{col("model", "", 0), col("strategy", "", 0)}, deliveryColumns...)...)
	for _, c := range r.Cells {
		t.add(c.Model, c.Strategy, c.DeliveryRatio, c.Completed, c.Lifetime, c.MeanResidual)
	}
	if p.Motion != nil {
		t.note("(speeds U[%v,%v] m/s; ambient motion is free-carrier — see EXPERIMENTS.md)", p.Motion.SpeedLo, p.Motion.SpeedHi)
	}
	t.Sweep = r.Sweep
	return t
}

// Table renders one row per (strategy, regime) cell, the EXPERIMENTS.md
// strategies.csv artifact.
func (r StrategyResult) Table() Table {
	p := r.Params
	t := newTable("strategies",
		fmt.Sprintf("Extension: registered strategies × channel regimes (k=%v, energy U[%v,%v] J in %d tiers, %d flows/cell)",
			p.K, p.EnergyLo, p.EnergyHi, p.EnergyTiers, p.Flows),
		append([]Column{col("strategy", "", 0), col("regime", "", 0),
			col("total_j", "total(J)", 1), col("tx_j", "tx(J)", 1), col("move_j", "move(J)", 1)}, deliveryColumns...)...)
	for _, c := range r.Cells {
		t.add(c.Strategy, c.Regime, c.TotalJ, c.TxJ, c.MoveJ, c.DeliveryRatio, c.Completed, c.Lifetime, c.MeanResidual)
	}
	t.note("(strategies: %s; regimes: %s — see EXPERIMENTS.md)", strings.Join(r.Strategies, ", "), strings.Join(r.Regimes, ", "))
	t.Sweep = r.Sweep
	return t
}

// Table renders one row per (nodes, procs) cell.
func (r ScalingResult) Table() Table {
	t := newTable("scaling",
		fmt.Sprintf("Extension: scaling — wall-clock throughput across nodes × procs (degree %.0f, horizon %.0fs)",
			float64(netsim.ScaleTargetDegree), float64(r.Params.Horizon)),
		col("nodes", "", 0), col("procs", "", 0), col("flows", "", 0),
		col("wall_s", "wall(s)", 2), col("node_sim_per_wall", "node-sim/s", 0),
		col("completed", "", 2), col("total_j", "total(J)", 3))
	for _, c := range r.Cells {
		t.add(c.Nodes, c.Procs, c.Flows, c.WallSeconds, c.NodeSimPerWall, c.Completed, c.TotalJ)
	}
	t.note("(procs = GOMAXPROCS, HELLO rounds split over min(procs, 8) workers; node-sim/s = simulated node-seconds per wall second)")
	return t
}

// Table renders ablation A1, one row per estimate scale.
func (s SensitivitySweep) Table() Table {
	t := newTable("ablation_a1", "Ablation A1: inaccurate flow-length estimates",
		col("estimate_scale", "estimate scale", 2), col("informed_ratio", "informed avg ratio", 3))
	for _, pt := range s {
		t.add(pt.EstimateScale, pt.AvgRatioInformed)
	}
	return t
}

// Table renders ablation A2, one row per route planner.
func (r RelaySelectionResult) Table() Table {
	t := newTable("ablation_a2", "Ablation A2: relay selection (route planner)",
		col("planner", "", 0), col("informed_ratio", "informed avg ratio", 3),
		col("informed_j", "avg energy(J)", 2), col("path_len", "avg path len", 1))
	for _, pl := range r.Planners {
		t.add(pl.Name, pl.AvgRatioInformed, pl.AvgInformedTotal, pl.AvgPathLen)
	}
	return t
}

// Table renders ablation A3 as one row.
func (r MultiFlowResult) Table() Table {
	t := newTable("ablation_a3", "Ablation A3: multiple concurrent flows",
		col("flows_per_world", "flows/world", 0), col("completed", "", 0), col("total", "", 0),
		col("informed_ratio", "informed network-energy ratio", 3))
	t.add(r.FlowsPerWorld, r.Completed, r.Total, r.AvgRatioInformed)
	return t
}

// Table renders ablation A4 as one row.
func (r ControlOverheadResult) Table() Table {
	t := newTable("ablation_a4", "Ablation A4: control-traffic cost",
		col("free_ratio", "free control ratio", 3), col("charged_ratio", "charged control ratio", 3),
		col("control_j", "control(J)/flow", 3))
	t.add(r.FreeAvgRatio, r.ChargedAvgRatio, r.AvgControlJoules)
	return t
}

// Table renders ablation A5, one row per movement cap.
func (s StepSweep) Table() Table {
	t := newTable("ablation_a5", "Ablation A5: max movement per packet",
		col("max_step_m", "max step(m)", 0), col("informed_ratio", "informed avg ratio", 3),
		col("status_flips", "avg status flips", 2))
	for _, pt := range s {
		t.add(pt.MaxStep, pt.AvgRatioInformed, pt.AvgFlips)
	}
	return t
}

// Table renders the recruited-chain ratio split at recruitLongFlowBits;
// a group without flows reads n/a.
func (r RecruitmentResult) Table() Table {
	t := newTable("ablation_recruitment", "Extension: relay recruitment (selection + positioning, paper §5)",
		col("group", "", 0), col("flows", "", 0), col("recruited_ratio", "recruited avg ratio", 3))
	var long, short []float64
	for _, row := range r.Rows {
		if row.FlowBits >= recruitLongFlowBits {
			long = append(long, row.Recruited/row.Baseline)
		} else {
			short = append(short, row.Recruited/row.Baseline)
		}
	}
	group := func(op string, ratios []float64) {
		label := fmt.Sprintf("flow %s %.0f KB", op, recruitLongFlowBits/bitsPerKB)
		if len(ratios) == 0 {
			t.add(label, 0, "n/a")
			return
		}
		t.add(label, len(ratios), stats.Mean(ratios))
	}
	group(">=", long)
	group("<", short)
	t.note("informed-on-greedy avg ratio %.3f vs recruited-optimal-chain avg ratio %.3f (avg deploy %.0f J, %d skipped)",
		r.AvgRatioInformedGreedy, r.AvgRatioRecruited, r.AvgDeployCost, r.Skipped)
	t.Sweep = r.Sweep
	return t
}

// Table renders the threshold sweep, one row per flow length.
func (s ThresholdSweep) Table() Table {
	t := newTable("ablation_threshold", "Extension: flow-length threshold sweep (break-even crossover)",
		flowKB, col("ratio_cost_unaware", "cost-unaware", 3), col("ratio_imobif", "imobif", 3),
		Column{Name: "activation", Label: "activation(%)", Scale: 100})
	for _, pt := range s {
		t.add(pt.FlowBits, pt.AvgRatioCostUnaware, pt.AvgRatioInformed, pt.ActivationRate)
	}
	return t
}

// Table renders ablation A6 as one row.
func (r AlphaPrimeQualityResult) Table() Table {
	t := newTable("ablation_a6", "Ablation A6: α′ approximation vs exact Theorem 1 solve",
		col("alpha_prime", "α′", 3), col("ratio_approx", "lifetime ratio approx", 3),
		col("ratio_exact", "lifetime ratio exact", 3))
	t.add(r.AlphaPrime, r.AvgRatioApprox, r.AvgRatioExact)
	return t
}
