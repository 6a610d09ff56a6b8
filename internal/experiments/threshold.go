package experiments

import (
	"context"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/stats"
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

// ThresholdSweep is the threshold study's result, one point per flow
// length.
type ThresholdSweep []ThresholdPoint

// thresholdSample is one (instance, length) trial of the sweep.
type thresholdSample struct {
	CU, Inf   float64
	Activated bool
}

// RunThresholdSweepCtx traces the mobility break-even crossover that
// Figure 6 shows implicitly across its panels: at each fixed flow length,
// the average energy ratio of cost-unaware and informed mobility over
// common instances. As the flow grows, the cost-unaware ratio descends
// through 1.0, and iMobif's activation rate rises from 0 toward 1 around
// the point where movement genuinely pays ([6]'s threshold observation,
// computed online by the framework). Every length reruns the same
// instances with their flow length fixed, as a sweep journaled as cell
// "threshold <bits>".
func RunThresholdSweepCtx(ctx context.Context, p Params, lengths []float64) (ThresholdSweep, error) {
	if len(lengths) == 0 {
		return nil, fmt.Errorf("experiments: no sweep lengths")
	}
	out := make(ThresholdSweep, 0, len(lengths))
	for _, bits := range lengths {
		if bits <= 0 {
			return nil, fmt.Errorf("experiments: non-positive flow length %v", bits)
		}
		samples, err := runTrials(ctx, p, fmt.Sprintf("threshold %v", bits), nil, func(cfg netsim.Config, trial int) (thresholdSample, error) {
			inst, err := GenInstance(p, trial)
			if err != nil {
				return thresholdSample{}, err
			}
			inst.FlowBits = bits
			r, err := runModes(cfg, inst, paperModes...)
			if err != nil {
				return thresholdSample{}, err
			}
			base := r[0].Energy.Total()
			return thresholdSample{
				CU:        stats.Ratio(r[1].Energy.Total(), base),
				Inf:       stats.Ratio(r[2].Energy.Total(), base),
				Activated: r[2].Outcome().StatusFlips > 0,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		activated := 0
		for _, s := range samples {
			if s.Activated {
				activated++
			}
		}
		out = append(out, ThresholdPoint{
			FlowBits:            bits,
			AvgRatioCostUnaware: meanOf(samples, func(s thresholdSample) float64 { return s.CU }),
			AvgRatioInformed:    meanOf(samples, func(s thresholdSample) float64 { return s.Inf }),
			ActivationRate:      float64(activated) / float64(len(samples)),
		})
	}
	return out, nil
}
