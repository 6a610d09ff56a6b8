package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// Sample is one point of a run's time-resolved metrics: the cumulative
// per-category energy spend, the residual-energy distribution (the
// paper's Figure 5/6 system-lifetime curve material), and the delivery
// and retry counters, all as of simulated time At.
type Sample struct {
	// At is the simulated time of the sample.
	At sim.Time
	// Energy is the cumulative network-wide consumption by category.
	Energy EnergyBreakdown
	// ResidualMin and ResidualMean summarize the residual-energy
	// distribution over all nodes; the minimum is the system-lifetime
	// leading indicator (the first node to hit zero ends the lifetime).
	ResidualMin  float64
	ResidualMean float64
	// AliveNodes counts nodes that are neither depleted nor crashed.
	AliveNodes int
	// DeliveredPackets and DroppedPackets are cumulative end-to-end data
	// packet counts summed over all flows; Retransmits is the retry
	// transport's cumulative hop-level retransmission count.
	DeliveredPackets uint64
	DroppedPackets   uint64
	Retransmits      uint64
}

// TimeSeries collects samples at a fixed simulated-time interval. The
// netsim world appends one sample at t=0, one per interval, and a final
// one when the run ends, so the series always brackets the run.
type TimeSeries struct {
	// Interval is the sampling period in simulated seconds.
	Interval sim.Time
	// Samples holds the collected points in strictly increasing At order.
	Samples []Sample
}

// NewTimeSeries returns a collector with the given sampling interval.
func NewTimeSeries(interval sim.Time) *TimeSeries {
	return &TimeSeries{Interval: interval}
}

// Append adds a sample, dropping it if it does not advance simulated time
// (the final end-of-run sample may coincide with a periodic one), so
// Samples stays strictly increasing in At.
func (ts *TimeSeries) Append(s Sample) {
	if n := len(ts.Samples); n > 0 && s.At <= ts.Samples[n-1].At {
		return
	}
	ts.Samples = append(ts.Samples, s)
}

// Last returns the most recent sample (zero value when empty).
func (ts *TimeSeries) Last() Sample {
	if len(ts.Samples) == 0 {
		return Sample{}
	}
	return ts.Samples[len(ts.Samples)-1]
}

// jsonSample is the pinned wire form of one metrics sample (one JSONL
// line). Every key always appears; the golden schema test pins the set.
type jsonSample struct {
	T         float64 `json:"t"`
	TxJ       float64 `json:"tx_j"`
	MoveJ     float64 `json:"move_j"`
	ControlJ  float64 `json:"control_j"`
	RxJ       float64 `json:"rx_j"`
	ResMin    float64 `json:"residual_min_j"`
	ResMean   float64 `json:"residual_mean_j"`
	Alive     int     `json:"alive"`
	Delivered uint64  `json:"delivered"`
	Dropped   uint64  `json:"dropped"`
	Retrans   uint64  `json:"retransmits"`
}

// WriteJSONL streams the series to w, one JSON object per sample line
// (the export behind imobif-sim -metrics-out).
func (ts *TimeSeries) WriteJSONL(w io.Writer) error {
	for _, s := range ts.Samples {
		b, err := json.Marshal(jsonSample{
			T:     float64(s.At),
			TxJ:   s.Energy.Tx,
			MoveJ: s.Energy.Move, ControlJ: s.Energy.Control, RxJ: s.Energy.Rx,
			ResMin: s.ResidualMin, ResMean: s.ResidualMean,
			Alive: s.AliveNodes, Delivered: s.DeliveredPackets,
			Dropped: s.DroppedPackets, Retrans: s.Retransmits,
		})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ParseSamplesJSONL reads a metrics JSONL stream back into samples, the
// inverse of WriteJSONL.
func ParseSamplesJSONL(r io.Reader) ([]Sample, error) {
	dec := json.NewDecoder(r)
	var out []Sample
	for line := 1; ; line++ {
		var js jsonSample
		if err := dec.Decode(&js); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("metrics: sample %d: %w", line, err)
		}
		out = append(out, Sample{
			At: sim.Time(js.T),
			Energy: EnergyBreakdown{
				Tx: js.TxJ, Move: js.MoveJ, Control: js.ControlJ, Rx: js.RxJ,
			},
			ResidualMin: js.ResMin, ResidualMean: js.ResMean,
			AliveNodes: js.Alive, DeliveredPackets: js.Delivered,
			DroppedPackets: js.Dropped, Retransmits: js.Retrans,
		})
	}
}
