package netsim

// Config.Parallel runs a world on the conservative-lookahead windowed
// scheduler (sim.RunUntilWindowed) with no Prepare hook: events are
// collected window by window and fired in exact (time, seq) order on the
// calling goroutine, so the run is byte-identical to the serial scheduler
// (the cross-scheduler determinism battery pins it) and no faster. No
// world event has per-node work left to precompute: ambient motion is a
// single tick per interval (see World.motionTick). HELLO rounds use the
// host's cores under either scheduler (see hello_round.go).

import "repro/internal/sim"

// lookahead returns the window length for the windowed scheduler: the
// smallest recurring event spacing of the configured world. Correctness
// does not depend on this value (the windowed scheduler's merge loop
// preserves exact order for any positive lookahead); it only sets the
// batching granularity.
func (w *World) lookahead() sim.Time {
	l := sim.Time(w.cfg.PacketBits / w.cfg.FlowRateBps)
	consider := func(v sim.Time) {
		if v > 0 && (l <= 0 || v < l) {
			l = v
		}
	}
	consider(w.cfg.HelloInterval)
	consider(w.cfg.SampleInterval)
	if w.motionModel != nil {
		consider(sim.Time(w.cfg.Motion.StepInterval()))
	}
	if w.cfg.Faults.RetryEnabled() {
		consider(sim.Time(w.cfg.Faults.RetryTimeout))
	}
	if l <= 0 {
		l = 1
	}
	return l
}
