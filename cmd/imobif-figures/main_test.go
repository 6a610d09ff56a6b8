package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

func TestRunSingleFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("6a", runOpts{flows: 3, seed: 1, csvDir: dir}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig6a.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 flows
		t.Errorf("csv rows = %d, want 4", len(rows))
	}
	want := []string{"flow_bits", "baseline_joules", "ratio_cost_unaware", "ratio_imobif"}
	for i, h := range want {
		if rows[0][i] != h {
			t.Errorf("header[%d] = %q, want %q", i, rows[0][i], h)
		}
	}
}

func TestRunFig5CSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("5", runOpts{flows: 1, seed: 1, csvDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5.csv")); err != nil {
		t.Errorf("fig5.csv missing: %v", err)
	}
}

// TestRunFig5HonorsNodes checks that -nodes reaches Figure 5 as it does
// every other figure: a 400-node network must change the trajectory.
func TestRunFig5HonorsNodes(t *testing.T) {
	read := func(nodes int) string {
		dir := t.TempDir()
		if err := run("5", runOpts{flows: 1, seed: 1, nodes: nodes, csvDir: dir}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if read(0) == read(400) {
		t.Error("-fig 5 -nodes 400 wrote the same fig5.csv as the default network")
	}
}

func TestRunFig7NoCSV(t *testing.T) {
	if err := run("7", runOpts{flows: 2, seed: 1, csvDir: ""}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run("99", runOpts{flows: 1, seed: 1, csvDir: ""}); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestF2S(t *testing.T) {
	tab := experiments.Table{Columns: []experiments.Column{{Name: "v"}}, Rows: [][]any{{1.5}}}
	if got := tab.CSV()[1][0]; got != "1.5" {
		t.Errorf("CSV float = %q", got)
	}
}

func TestRunFig6bCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("6b", runOpts{flows: 2, seed: 1, csvDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig6b.csv")); err != nil {
		t.Errorf("fig6b.csv missing: %v", err)
	}
}

func TestRunFig8CSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("8", runOpts{flows: 2, seed: 1, csvDir: dir}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // header + one CDF point per flow
		t.Errorf("fig8.csv rows = %d, want 3", len(rows))
	}
}

func TestRunAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	if err := run("all", runOpts{flows: 2, seed: 1, csvDir: ""}); err != nil {
		t.Fatal(err)
	}
}
