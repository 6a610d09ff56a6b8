// Conservative-lookahead windowed execution.
//
// RunUntilWindowed drains the queue in batches: all events within
// [t, t+L) — where L is the caller-supplied lookahead, normally the
// minimum latency any event can schedule another event at — are collected
// into a window and handed to a Prepare hook before any of them fires.
// The hook may precompute the pure part of the events' work on multiple
// goroutines (netsim passes none); the scheduler then fires the window
// strictly in (time, seq) order on the calling goroutine.
//
// # Determinism argument
//
// Byte-identity with the serial scheduler does not rest on L being
// estimated correctly. The fire loop is a merge: before each window entry
// fires, any event scheduled *during* the window that sorts earlier (its
// time precedes the entry's) is fired first, straight off the heap. An L
// that is too large therefore never reorders execution — it only means
// some precomputed work was based on state that a preceding event could
// have changed, and the Prepare contract (below) is what makes that
// impossible for the work a hook precomputes. An L that is too
// small just shrinks the batches. In both cases the observable sequence
// of (time, seq, callback) firings is exactly the serial one, which is
// why the golden fingerprints hold under any shard count.
//
// The Prepare contract: the hook must only precompute results whose
// inputs cannot change before their event fires. The collection step
// guarantees that, at hook time, every event outside the window is at or
// after the window's end; only the window's own entries (fired strictly
// in order) and events they schedule can run before a given entry. Hooks
// therefore restrict themselves to a leading prefix of entries whose
// callbacks touch disjoint, self-owned state (for example one motion step
// per node, each reading only that node's position and random stream).
package sim

import (
	"context"
	"fmt"
	"math"
)

// QueuedEvent is one event collected into a lookahead window: its fire
// time and sequence number plus the slot bookkeeping the scheduler needs
// to fire or re-queue it. Prepare hooks read At, Seq, and Arg to decide
// what to precompute; they must not fire events themselves.
type QueuedEvent struct {
	// At and Seq are the event's scheduled time and sequence number; the
	// window slice is sorted by (At, Seq), the scheduler's fire order.
	At  Time
	Seq uint64

	fn   Func
	arg  any
	slot int32
	gen  uint32
}

// Arg returns the argument the event was scheduled with (AtArg/AfterArg);
// closure events (At/After) return the closure itself.
func (e *QueuedEvent) Arg() any { return e.arg }

// Prepare inspects a collected window before it fires. The batch is
// sorted by (At, Seq). The hook must not call back into the scheduler; it
// exists so callers can precompute event work in parallel, subject to the
// contract in the package comment above.
type Prepare func(batch []QueuedEvent)

// RunUntilWindowed is RunUntilContext driven by conservative-lookahead
// windows: repeatedly collect every queued event within lookahead of the
// next event's time (capped at the horizon), hand the batch to prepare
// (if non-nil), then fire the batch in exact (time, seq) order, merging
// in any earlier-sorting events the batch schedules along the way. With a
// nil prepare hook it is behaviorally identical to RunUntilContext except
// that ctx is checked between windows rather than between events.
func (s *Scheduler) RunUntilWindowed(ctx context.Context, horizon, lookahead Time, prepare Prepare) error {
	if horizon < s.now {
		return fmt.Errorf("sim: horizon %v is in the past (now %v)", horizon, s.now)
	}
	if !(lookahead > 0) || math.IsNaN(float64(lookahead)) || math.IsInf(float64(lookahead), 0) {
		return fmt.Errorf("sim: invalid lookahead %v", lookahead)
	}
	done := ctx.Done()
	s.stopped = false
	for !s.stopped {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if len(s.heap) == 0 || s.events[s.heap[0]].at > horizon {
			s.now = horizon
			return nil
		}
		s.fireWindow(s.collectWindow(horizon, lookahead), prepare)
	}
	return ErrStopped
}

// collectWindow pops every event with time in [t0, t0+lookahead) — t0
// being the earliest queued time — and at most the horizon, into the
// scheduler's reusable window buffer. The first event is always taken, so
// a lookahead that underflows to zero width at large t0 cannot stall the
// loop. Collected slots are marked heapWindowed: still live, still
// cancelable, just not heap-resident.
func (s *Scheduler) collectWindow(horizon, lookahead Time) []QueuedEvent {
	batch := s.window[:0]
	end := s.events[s.heap[0]].at + lookahead
	for len(s.heap) > 0 {
		top := &s.events[s.heap[0]]
		if len(batch) > 0 && (top.at >= end || top.at > horizon) {
			break
		}
		slot := s.popMin()
		ev := &s.events[slot]
		ev.heap = heapWindowed
		s.windowed++
		batch = append(batch, QueuedEvent{At: ev.at, Seq: ev.seq, fn: ev.fn, arg: ev.arg, slot: slot, gen: ev.gen})
	}
	s.window = batch
	return batch
}

// fireWindow fires a collected window in (time, seq) order, interleaving
// any earlier-sorting events that window entries schedule (fired directly
// off the heap), and skipping entries canceled while they waited. On Stop
// the unfired remainder is pushed back into the heap so Pending stays
// exact.
func (s *Scheduler) fireWindow(batch []QueuedEvent, prepare Prepare) {
	if prepare != nil && len(batch) > 1 {
		prepare(batch)
	}
	for i := range batch {
		e := &batch[i]
		// Newly scheduled events that precede this entry fire first — the
		// merge step that makes execution order independent of how the
		// window was batched.
		for len(s.heap) > 0 && !s.stopped {
			top := &s.events[s.heap[0]]
			if top.at > e.At || (top.at == e.At && top.seq > e.Seq) {
				break
			}
			s.step()
		}
		if s.stopped {
			s.requeueWindow(batch[i:])
			return
		}
		ev := &s.events[e.slot]
		if ev.gen != e.gen || ev.heap != heapWindowed {
			e.fn, e.arg = nil, nil
			continue // canceled while the window was pending
		}
		s.windowed--
		s.release(e.slot)
		s.now = e.At
		s.fired++
		fn, arg := e.fn, e.arg
		e.fn, e.arg = nil, nil // don't retain refs in the reused buffer
		fn(arg)
	}
}

// requeueWindow pushes the unfired tail of a stopped window back into the
// heap. Slot contents are intact (only release clears them), so a later
// resume — or Pending/Fired inspection — sees exactly the serial state.
func (s *Scheduler) requeueWindow(rest []QueuedEvent) {
	for i := range rest {
		e := &rest[i]
		ev := &s.events[e.slot]
		if ev.gen != e.gen || ev.heap != heapWindowed {
			continue
		}
		s.windowed--
		s.heapPush(e.slot)
		e.fn, e.arg = nil, nil
	}
}
