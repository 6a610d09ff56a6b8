package netsim

// Conservative-lookahead parallelism for one world.
//
// The windowed scheduler (sim.RunUntilWindowed) batches the events of one
// lookahead window and shows them to prepareWindow before any of them
// fires. Firing stays strictly serial and in exact (time, seq) order —
// what the workers parallelize is only the *pure precomputation* of
// ambient motion steps, whose effects are provably confined to their own
// node. A motion model draws exclusively from the stepped node's own
// stream (or its group's — see motion.StreamSharder), and a step reads
// only the node's own position, so steps of distinct nodes commute.
// prepareWindow precomputes the *leading prefix* of motion events in the
// batch: because the prefix is leading, the only events that fire before
// entry k are earlier prefix entries, and those mutate nothing entry k
// reads (each node appears at most once per window since the lookahead
// never exceeds the motion interval). A single non-motion event at the
// head of the batch therefore empties the prefix and the world degrades
// to exact serial behavior — the conservative fallback.
//
// The precomputation produces bit-identical state transitions to the
// serial scheduler; the cross-scheduler determinism battery
// (determinism_test.go) pins this for every golden scenario. HELLO rounds
// parallelize inside the round itself, under either scheduler (see
// hello_round.go).

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/sim"
)

// motionArg is the scheduler-argument type of ambient motion events. It is
// a distinct pointer-shaped type (no boxing allocation beyond the *node
// itself) so prepareWindow can recognize motion events in a batch by a
// type assertion alone.
type motionArg *node

// premove is one node's precomputed ambient motion step: the position the
// model step started from (validated at consumption — the step is only
// usable if the node has not moved since precompute, which the leading-
// prefix rule guarantees) and the resulting position.
type premove struct {
	from, next geom.Point
	ok         bool
}

// takePremove consumes node id's precomputed step, reporting whether one
// was available. A stale entry — precomputed from a position the node no
// longer occupies — would mean the leading-prefix invariant was violated
// and the model stream advanced from the wrong state, so it panics rather
// than silently diverge from the serial schedule.
func (w *World) takePremove(id NodeID, cur geom.Point) (geom.Point, bool) {
	if w.pre == nil || !w.pre[id].ok {
		return geom.Point{}, false
	}
	p := &w.pre[id]
	p.ok = false
	if p.from != cur {
		panic(fmt.Sprintf("netsim: stale precomputed motion for node %d: precomputed from %v, firing at %v", id, p.from, cur))
	}
	return p.next, true
}

// lookahead returns the window length for the parallel scheduler: the
// smallest recurring event spacing of the configured world. Correctness
// does not depend on this value (the windowed scheduler's merge loop
// preserves exact order for any positive lookahead); it only sets the
// batching granularity, and keeping it at or below the motion interval
// guarantees each node contributes at most one motion event per window —
// the invariant the leading-prefix precompute relies on.
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

// prepareWindow is the sim.Prepare hook of parallel runs: it finds the
// leading prefix of ambient motion events in the window batch and
// precomputes their model steps across the shard workers. Entries after
// the first non-motion event are left for exact serial execution.
func (w *World) prepareWindow(batch []sim.QueuedEvent) {
	if w.motionModel == nil || w.shards < 2 {
		return
	}
	prefix := 0
	for prefix < len(batch) {
		if _, isMotion := batch[prefix].Arg().(motionArg); !isMotion {
			break
		}
		prefix++
	}
	if prefix < 2 || prefix < w.shards {
		return
	}
	w.precomputeMotion(batch[:prefix])
}

// precomputeMotion steps every live node of the prefix concurrently and
// parks the results in w.pre for ambientStep to consume. Work is
// partitioned by model stream: nodes whose steps advance the same stream
// (RPGM group members) stay on one worker, processed in batch order, so
// every stream sees exactly the variate sequence the serial scheduler
// would produce. Models with per-node streams shard by node id.
func (w *World) precomputeMotion(prefix []sim.QueuedEvent) {
	if w.pre == nil {
		w.pre = make([]premove, len(w.nodes))
	}
	streamKey := func(id int) int { return id }
	if sh, ok := w.motionModel.(interface{ StreamShard(id int) int }); ok {
		streamKey = sh.StreamShard
	}
	interval := w.cfg.Motion.StepInterval()
	var wg sync.WaitGroup
	wg.Add(w.shards)
	for shard := 0; shard < w.shards; shard++ {
		go func(mine int) {
			defer wg.Done()
			for i := range prefix {
				n := (*node)(prefix[i].Arg().(motionArg))
				id := n.id
				if streamKey(id)%w.shards != mine || w.store.dead[id] {
					continue
				}
				cur := w.store.pos[id]
				w.pre[id] = premove{from: cur, next: w.motionModel.Step(id, cur, interval), ok: true}
			}
		}(shard)
	}
	wg.Wait()
}
