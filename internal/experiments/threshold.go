package experiments

import (
	"context"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ThresholdPoint is one sample of the flow-length sweep: the average
// energy ratio of each approach at a fixed flow length.
type ThresholdPoint struct {
	FlowBits float64
	// AvgRatioCostUnaware / AvgRatioInformed are energy ratios over the
	// no-mobility baseline at this flow length.
	AvgRatioCostUnaware float64
	AvgRatioInformed    float64
	// ActivationRate is the fraction of instances where iMobif enabled
	// mobility at least once.
	ActivationRate float64
}

// RunThresholdSweep traces the mobility break-even crossover that Figure 6
// shows implicitly across its panels: at each fixed flow length, the
// average energy ratio of cost-unaware and informed mobility over common
// instances. As the flow grows, the cost-unaware ratio descends through
// 1.0, and iMobif's activation rate rises from 0 toward 1 around the point
// where movement genuinely pays ([6]'s threshold observation, computed
// online by the framework).
func RunThresholdSweep(p Params, lengths []float64) ([]ThresholdPoint, error) {
	return RunThresholdSweepCtx(context.Background(), p, lengths)
}

// thresholdSample is one (instance, length) trial of the sweep.
type thresholdSample struct {
	cu, inf   float64
	activated bool
}

// RunThresholdSweepCtx is RunThresholdSweep with cancellation. The same
// instances are reused at every length; per length, instances run on the
// sweep runner.
func RunThresholdSweepCtx(ctx context.Context, p Params, lengths []float64) ([]ThresholdPoint, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("experiments: no sweep lengths")
	}
	cfg, err := p.config()
	if err != nil {
		return nil, err
	}
	instances, err := GenInstancesCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	out := make([]ThresholdPoint, 0, len(lengths))
	for _, bits := range lengths {
		if bits <= 0 {
			return nil, fmt.Errorf("experiments: non-positive flow length %v", bits)
		}
		samples, _, err := sweep.Map(ctx, p.runner(), len(instances), func(_ context.Context, trial int) (thresholdSample, error) {
			fixed := instances[trial]
			fixed.FlowBits = bits
			base, err := runMode(cfg, fixed, netsim.ModeNoMobility)
			if err != nil {
				return thresholdSample{}, err
			}
			cuRes, err := runMode(cfg, fixed, netsim.ModeCostUnaware)
			if err != nil {
				return thresholdSample{}, err
			}
			infRes, err := runMode(cfg, fixed, netsim.ModeInformed)
			if err != nil {
				return thresholdSample{}, err
			}
			return thresholdSample{
				cu:        stats.Ratio(cuRes.Energy.Total(), base.Energy.Total()),
				inf:       stats.Ratio(infRes.Energy.Total(), base.Energy.Total()),
				activated: infRes.Outcome().StatusFlips > 0,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var cu, inf []float64
		activated := 0
		for _, s := range samples {
			cu = append(cu, s.cu)
			inf = append(inf, s.inf)
			if s.activated {
				activated++
			}
		}
		out = append(out, ThresholdPoint{
			FlowBits:            bits,
			AvgRatioCostUnaware: stats.Mean(cu),
			AvgRatioInformed:    stats.Mean(inf),
			ActivationRate:      float64(activated) / float64(len(instances)),
		})
	}
	return out, nil
}
