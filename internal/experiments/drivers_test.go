package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// driverCase is one Monte-Carlo driver at a small size: every driver
// runs its trials through the shared trial engine, so this table is what
// the output-digest and interrupt-and-resume tests sweep.
type driverCase struct {
	name   string
	params func() Params
	run    func(ctx context.Context, p Params) (any, error)
	// digest is the SHA-256 of the marshaled result at these parameters.
	digest string
}

// tinyParams shrinks a configuration to the digest size: five flows on
// seed 3, the flow-length tail clamped at twice the mean.
func tinyParams(p Params) Params {
	p.Seed = 3
	p.Flows = 5
	p.MaxFlowBits = 2 * p.MeanFlowBits
	return p
}

func fig6Tiny(variant string) func() Params {
	return func() Params {
		p, err := ParamsFig6(variant)
		if err != nil {
			panic(err)
		}
		return tinyParams(p)
	}
}

func fig6Case(variant, digest string) driverCase {
	return driverCase{"fig6" + variant, fig6Tiny(variant), func(ctx context.Context, p Params) (any, error) {
		return RunFig6Ctx(ctx, p, variant)
	}, digest}
}

func driverCases() []driverCase {
	longFlows := func() Params {
		p := fig6Tiny("c")()
		p.Flows = 4
		return p
	}
	fig8 := func() Params {
		p := tinyParams(ParamsFig8())
		p.Flows = 4
		return p
	}
	mob := func() Params { p := smallMobility(); p.Seed = 3; return p }
	strat := func() Params { p := smallStrategies(); p.Seed = 3; p.Flows = 4; return p }
	return []driverCase{
		fig6Case("a", "79c1f34e6388cea0929fb19802e0a0f6512b9fb71e7bff4840f431919264160b"),
		fig6Case("c", "8b70ed965d2dd6201fb7506337ab24f2eaef54eee0e3cd122ef8cd340ef3cdcd"),
		fig6Case("d", "a3ee510ed1eab109ae832aed3effaf46dbe93af9e5fc448a60b13125d945c623"),
		fig6Case("e", "0d0417f29ad32f5afc6331a7a70cb32d27d33a6ba929a3a2277fbbda1b7f08bf"),
		fig6Case("f", "832e41213c52e427741cf56dd4588bdd62aef0a5332db26d3bad0aa15196e8f0"),
		{"fig6b", fig6Tiny("a"), func(ctx context.Context, p Params) (any, error) { return RunFig6bCtx(ctx, p) },
			"7f0a0405b536cc65b0fbf341cd9cb27231fa51b8800c944604a9b014202e6d7b"},
		{"fig7", func() Params { return tinyParams(ParamsFig7()) }, func(ctx context.Context, p Params) (any, error) { return RunFig7Ctx(ctx, p) },
			"fb2be5ed74c92d1d43c9908c6ad870cee28749217b20fa3eb7b906b135c0a969"},
		{"fig8", func() Params { return tinyParams(ParamsFig8()) }, func(ctx context.Context, p Params) (any, error) { return RunFig8Ctx(ctx, p) },
			"9f0a84f27b1eb5fad32d95920b7364554d034a5d7e7c404fb3249601c9b4141f"},
		{"mobility", mob, func(ctx context.Context, p Params) (any, error) { return RunMobilityModelsCtx(ctx, p) },
			"64601ed058f83eec54b17e6d508ce8bd1b69fdd627fa266d03080ad88c3ff036"},
		{"strategies", strat, func(ctx context.Context, p Params) (any, error) { return RunStrategyComparisonCtx(ctx, p) },
			"941575ce24b0fbb5d8504dd080c3209f5511282e8c05e97238eb07b11ceb0d20"},
		{"recruitment", longFlows, func(ctx context.Context, p Params) (any, error) { return RunRelayRecruitmentCtx(ctx, p) },
			"722a4793e3983fa4f384373d5ed315cc8d62bd75f0b905742569cbd53c605223"},
		{"threshold", longFlows, func(ctx context.Context, p Params) (any, error) {
			return RunThresholdSweepCtx(ctx, p, []float64{8e4, 8e7})
		}, "562068acd3fadc5d85b26fef9940a0fa351a187cc351f7c2ba974eeb90c4f3c6"},
		{"multiflow", fig6Tiny("a"), func(ctx context.Context, p Params) (any, error) { return RunMultiFlowCtx(ctx, p, 2) },
			"1ffd0da947e692a2ceb45f48c838d78917e5834d80a50777f71b8133208a958e"},
		{"A1", longFlows, func(ctx context.Context, p Params) (any, error) {
			return RunFlowLengthSensitivityCtx(ctx, p, []float64{0.5, 2})
		}, "1e86a70f12a13baba0ea8db161d4bf614ca1427610d8901459e7f68634474cc8"},
		{"A2", longFlows, func(ctx context.Context, p Params) (any, error) { return RunRelaySelectionCtx(ctx, p) },
			"4e204ba347b46b3f824822fb41faa52553e43498767fd2cefcbff8591506ec91"},
		{"A4", longFlows, func(ctx context.Context, p Params) (any, error) { return RunControlOverheadCtx(ctx, p) },
			"829eb890e95e1cebb37c200fc3895bcba233813c82d0b51b65bce4f1aa4de68e"},
		{"A5", longFlows, func(ctx context.Context, p Params) (any, error) {
			return RunStepSweepCtx(ctx, p, []float64{1, 10})
		}, "08548929de64101d859a8ead730e6371671228d3e450972df5fe59d91ebb9032"},
		{"A6", fig8, func(ctx context.Context, p Params) (any, error) { return RunAlphaPrimeQualityCtx(ctx, p) },
			"4992f1b89104af83476557f3b83928d3dfc2f0d1b655d9a30f73d703508a30ab"},
	}
}

// digestOf is the hex SHA-256 of a result's marshaled bytes.
func digestOf(t *testing.T, res any) string {
	t.Helper()
	sum := sha256.Sum256(marshal(t, res))
	return hex.EncodeToString(sum[:])
}

// TestDriverDigests pins every Monte-Carlo driver's marshaled output.
// The determinism tests only compare runs of the current code with each
// other; these digests catch a change that moves every run the same way.
func TestDriverDigests(t *testing.T) {
	for _, tc := range driverCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params()
			p.Concurrency = 2
			res, err := tc.run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestOf(t, res); got != tc.digest {
				t.Errorf("%s digest = %s, want %s", tc.name, got, tc.digest)
			}
		})
	}
}

// TestDriversResumeAfterInterrupt checkpoints every driver, interrupts
// it, and resumes twice: once from journals holding only their
// manifests, once from journals cut back to their first trial. Each
// resumed result must marshal to the bytes of an uninterrupted run, which
// the driver's pinned digest stands for.
func TestDriversResumeAfterInterrupt(t *testing.T) {
	for _, tc := range driverCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.params()
			p.Concurrency = 2
			p.Checkpoint = t.TempDir()

			// Interrupt before any trial completes: the first cell's
			// journal holds only its manifest.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := tc.run(ctx, p); err == nil {
				t.Fatal("canceled run reported success")
			}
			p.Resume = true
			resumed, err := tc.run(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if got := digestOf(t, resumed); got != tc.digest {
				t.Fatalf("resumed %s digest = %s, want the uninterrupted run's %s", tc.name, got, tc.digest)
			}

			// Cut every journal back to its manifest and first trial, as
			// a crash mid-sweep leaves it, and resume again.
			journals, err := filepath.Glob(filepath.Join(p.Checkpoint, "*.jsonl"))
			if err != nil || len(journals) == 0 {
				t.Fatalf("no journals written (%v)", err)
			}
			for _, path := range journals {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.SplitAfter(b, []byte("\n"))
				if err := os.WriteFile(path, bytes.Join(lines[:2], nil), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if resumed, err = tc.run(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			if got := digestOf(t, resumed); got != tc.digest {
				t.Fatalf("%s resumed from cut journals: digest = %s, want %s", tc.name, got, tc.digest)
			}
		})
	}
}
