package netsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/routing"
)

func TestConfigValidateBranches(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"bad radio", func(c *Config) { c.Radio.Range = 0 }},
		{"bad mobility", func(c *Config) { c.Mobility.K = -1 }},
		{"nil strategy", func(c *Config) { c.Strategy = nil }},
		{"bad mode", func(c *Config) { c.Mode = Mode(0) }},
		{"negative step", func(c *Config) { c.MaxStep = -1 }},
		{"zero packet", func(c *Config) { c.PacketBits = 0 }},
		{"zero rate", func(c *Config) { c.FlowRateBps = 0 }},
		{"zero estimate", func(c *Config) { c.EstimateScale = 0 }},
		{"nil planner", func(c *Config) { c.Planner = nil }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"NaN rx cost", func(c *Config) { c.Radio.RxPerBit = math.NaN() }},
		{"infinite step", func(c *Config) { c.MaxStep = math.Inf(1) }},
		{"NaN packet", func(c *Config) { c.PacketBits = math.NaN() }},
		{"infinite rate", func(c *Config) { c.FlowRateBps = math.Inf(1) }},
		{"NaN estimate", func(c *Config) { c.EstimateScale = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// Zero max step (static network) is legal.
	cfg := DefaultConfig()
	cfg.MaxStep = 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero max step should validate: %v", err)
	}
	// The planner field round-trips.
	if cfg.Planner.Name() != (routing.GreedyPlanner{}).Name() {
		t.Errorf("default planner = %q", cfg.Planner.Name())
	}
}

// TestCompilePath covers the one compile path: ParseMode inverts String,
// and WithStrategy resolves a registered strategy against the config's
// own models, rejecting unknown names, bad params and invalid configs.
func TestCompilePath(t *testing.T) {
	for _, m := range []Mode{ModeNoMobility, ModeCostUnaware, ModeInformed} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("Mode(0)"); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("ParseMode of an unknown name: %v", err)
	}
	cfg, err := DefaultConfig().WithStrategy("max-lifetime", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ml, ok := cfg.Strategy.(mobility.MaxLifetime); !ok || !(ml.AlphaPrime > 0) {
		t.Errorf("WithStrategy(max-lifetime) = %#v", cfg.Strategy)
	}
	badTx, badHorizon := DefaultConfig(), DefaultConfig()
	badTx.Radio.Tx.B = 0
	badHorizon.Horizon = 0
	for _, tc := range []struct {
		name     string
		cfg      Config
		strategy string
		params   mobility.Params
	}{
		{"unknown name", DefaultConfig(), "warp-drive", nil},
		{"bad param", DefaultConfig(), "min-energy", mobility.Params{"x": 1}},
		{"bad tx", badTx, "min-energy", nil},
		{"bad config", badHorizon, "min-energy", nil},
	} {
		if _, err := tc.cfg.WithStrategy(tc.strategy, tc.params); err == nil {
			t.Errorf("%s: WithStrategy accepted", tc.name)
		}
	}
}

func TestFlowPathAccessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = mobility.MinEnergy{}
	w := chainWorld(t, cfg, 4, 0, 100)
	id, err := w.AddFlow(FlowSpec{Src: 0, Dst: 3, LengthBits: 8192})
	if err != nil {
		t.Fatal(err)
	}
	path, err := w.FlowPath(id)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 3 {
		t.Errorf("path = %v", path)
	}
	// Returned path is a copy: mutating it must not corrupt the flow.
	path[0] = 99
	again, err := w.FlowPath(id)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 0 {
		t.Error("FlowPath returned a live reference")
	}
	if _, err := w.FlowPath(id + 77); err == nil {
		t.Error("unknown flow should error")
	}
	if _, err := w.PathSnapshot(id + 77); err == nil {
		t.Error("unknown flow snapshot should error")
	}
}

func TestResultOutcomePanicsOnMultiFlow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Outcome on a two-flow result should panic")
		}
	}()
	r := Result{Flows: []metrics.FlowOutcome{{}, {}}}
	_ = r.Outcome()
}
