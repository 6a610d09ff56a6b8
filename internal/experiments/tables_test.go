package experiments

import (
	"context"
	"strings"
	"testing"
)

// checkTable asserts a table's schema holds: a name and title, one value
// of a supported type per column in every row, and CSV and text
// renderings of the same shape headed by the column names and labels.
func checkTable(t *testing.T, tab Table) {
	t.Helper()
	if tab.Name == "" || tab.Title == "" {
		t.Errorf("table %q lacks a name or title (%q)", tab.Name, tab.Title)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("%s row %d has %d values for %d columns", tab.Name, i, len(row), len(tab.Columns))
		}
		for j, v := range row {
			switch v.(type) {
			case float64, int, string:
			default:
				t.Errorf("%s row %d column %s holds a %T", tab.Name, i, tab.Columns[j].Name, v)
			}
		}
	}
	csv, text := tab.CSV(), tab.Text()
	if len(csv) != len(tab.Rows)+1 || len(text) != len(csv) {
		t.Fatalf("%s renders %d CSV and %d text records for %d rows", tab.Name, len(csv), len(text), len(tab.Rows))
	}
	for j, c := range tab.Columns {
		if csv[0][j] != c.Name {
			t.Errorf("%s CSV header %d = %q, want %q", tab.Name, j, csv[0][j], c.Name)
		}
		if text[0][j] == "" {
			t.Errorf("%s text header %d is empty", tab.Name, j)
		}
	}
}

// TestDriverTables renders every Monte-Carlo driver's result at its
// digest size and checks the table schema.
func TestDriverTables(t *testing.T) {
	for _, tc := range driverCases() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(context.Background(), tc.params())
			if err != nil {
				t.Fatal(err)
			}
			tab := res.(interface{ Table() Table }).Table()
			checkTable(t, tab)
			if len(tab.Rows) == 0 {
				t.Errorf("%s table has no rows", tab.Name)
			}
		})
	}
	fig5, err := RunFig5(ParamsFig7())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, fig5.Table())
	checkTable(t, ScalingResult{Params: ParamsScaling(), Cells: []ScalingCell{{Nodes: 5000, Procs: 1, Flows: 50}}}.Table())
}

// TestTablesReportKB checks that flow sizes read in the KB the
// parameters define (8,000 bits, so 8e4 bits is 10 KB) in titles and
// text columns, while the CSV keeps bits.
func TestTablesReportKB(t *testing.T) {
	p, err := ParamsFig6("c")
	if err != nil {
		t.Fatal(err)
	}
	if title := (Fig6Result{Variant: "c", Params: p}).Table().Title; !strings.Contains(title, "mean flow 10000 KB") {
		t.Errorf("Fig 6(c) title %q, want mean flow 10000 KB", title)
	}
	sweep := ThresholdSweep{{FlowBits: 8e4}, {FlowBits: 8e6}, {FlowBits: 8e7}, {FlowBits: 4e8}}.Table()
	text, csv := sweep.Text(), sweep.CSV()
	if text[0][0] != "flow(KB)" || csv[0][0] != "flow_bits" {
		t.Errorf("flow headers: text %q, CSV %q", text[0][0], csv[0][0])
	}
	wantKB := []string{"10", "1000", "10000", "50000"}
	wantBits := []string{"80000", "8e+06", "8e+07", "4e+08"}
	for i := range wantKB {
		if text[i+1][0] != wantKB[i] || csv[i+1][0] != wantBits[i] {
			t.Errorf("threshold row %d: text %q KB, CSV %q bits; want %q and %q",
				i, text[i+1][0], csv[i+1][0], wantKB[i], wantBits[i])
		}
	}
}

// TestRecruitmentTableSplit runs the recruitment study as the ablation
// suite does at -flows 2, where no flow reaches recruitLongFlowBits: the
// empty long group reads n/a, not a zero mean.
func TestRecruitmentTableSplit(t *testing.T) {
	p, err := ParamsFig6("c")
	if err != nil {
		t.Fatal(err)
	}
	p.Flows = 2
	p.MaxFlowBits = 4 * p.MeanFlowBits
	res, err := RunRelayRecruitmentCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.FlowBits >= recruitLongFlowBits {
			t.Fatalf("seed %d drew a long flow (%v bits); the test needs none", p.Seed, row.FlowBits)
		}
	}
	text := res.Table().Text()
	if long := text[1]; long[1] != "0" || long[2] != "n/a" {
		t.Errorf("empty long group renders %q, want 0 flows and n/a", long)
	}
	if short := text[2]; short[1] != "2" || short[2] == "n/a" {
		t.Errorf("short group renders %q, want 2 flows and a mean", short)
	}

	// A long flow lands in the long group with its own ratio.
	res.Rows = append(res.Rows, RecruitmentRow{FlowBits: recruitLongFlowBits, Baseline: 4, Recruited: 2})
	if long := res.Table().Text()[1]; long[1] != "1" || long[2] != "0.500" {
		t.Errorf("long group renders %q, want 1 flow at 0.500", long)
	}
}
