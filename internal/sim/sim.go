// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock and an indexed 4-ary min-heap event queue with stable
// FIFO ordering among events scheduled for the same instant.
//
// Determinism is load-bearing for the reproduction: the paper's experiments
// are Monte-Carlo sweeps, and a single seed must reproduce an entire sweep
// exactly. Events at equal times execute in scheduling order.
//
// # Performance
//
// The scheduler is the simulator's hottest path — every packet hop, HELLO
// beacon, retry timer, and sampler tick flows through it — so the queue is
// built to schedule and fire events without allocating:
//
//   - Events are value-typed slots in a flat arena, recycled through a
//     free list; no per-event heap object is ever allocated after the
//     arena has grown to the steady-state queue depth.
//   - Handles are generation-checked (slot index, generation) pairs, so a
//     stale Handle held after its event fired or was canceled can never
//     affect a recycled slot.
//   - Callbacks are {fn, arg} pairs (see Func, AtArg, AfterArg): recurring
//     event kinds schedule one long-lived function with a per-event
//     argument instead of allocating a fresh closure per event. The
//     closure-based At/After remain and ride the same machinery.
//   - The priority queue is a 4-ary min-heap of slot indices ordered by
//     (time, sequence), flatter and more cache-friendly than the binary
//     container/heap it replaces, with no interface boxing per operation.
//
// BenchmarkSchedulerSteadyState pins the zero-allocation property.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds.
type Time float64

// ErrStopped is returned by Run variants when the scheduler was stopped
// explicitly before the queue drained or the horizon was reached.
var ErrStopped = errors.New("sim: stopped")

// Func is a scheduled callback taking the argument it was scheduled with.
// Scheduling a long-lived Func with a per-event arg (AtArg, AfterArg)
// avoids the per-event closure allocation of At/After.
type Func func(arg any)

// event is one value-typed slot of the scheduler's event arena.
type event struct {
	at  Time
	seq uint64
	fn  Func
	arg any
	// gen is the slot's generation, bumped on every allocation; Handles
	// carry the generation they were issued with, so stale handles to
	// recycled slots fail the check.
	gen uint32
	// heap is the slot's position in the scheduler's heap, -1 while the
	// slot is free or its event has fired.
	heap int32
}

// Handle identifies a scheduled event so it can be canceled. The zero
// Handle is valid and cancels nothing. Handles are generation-checked:
// once the event fires or is canceled its slot may be recycled, and the
// stale Handle can never affect the slot's next occupant.
type Handle struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the event was
// actually canceled by this call.
//
// The event is removed from the queue immediately — not left as a dead
// entry to be skipped at pop time — so Pending() stays accurate and a
// long-lived scheduler that cancels many events (timer churn) does not
// accumulate dead heap entries.
func (h Handle) Cancel() bool {
	s := h.s
	if s == nil || h.slot < 0 || int(h.slot) >= len(s.events) {
		return false
	}
	ev := &s.events[h.slot]
	if ev.gen != h.gen || ev.heap == -1 {
		return false
	}
	s.heapRemove(int(ev.heap))
	s.release(h.slot)
	return true
}

// Scheduler owns the virtual clock and the pending-event queue. It is not
// safe for concurrent use; the simulation is single-threaded by design
// (concurrency would destroy determinism without buying fidelity).
type Scheduler struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	// events is the slot arena; heap holds the indices of queued slots as
	// a 4-ary min-heap ordered by (at, seq); free lists recycled slots.
	events []event
	heap   []int32
	free   []int32
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of events waiting to fire. Canceled events
// are removed from the queue eagerly and do not count.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// runClosure adapts the closure-based At/After onto the {fn, arg} slots:
// the closure itself is the argument (func values are pointer-shaped, so
// the conversion to any does not allocate).
func runClosure(arg any) { arg.(func())() }

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// a non-finite time) is a programming error and returns an error without
// scheduling.
func (s *Scheduler) At(t Time, fn func()) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("sim: nil event function")
	}
	return s.AtArg(t, runClosure, fn)
}

// After schedules fn to run delay seconds from now. Negative delays are an
// error.
func (s *Scheduler) After(delay Time, fn func()) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("sim: nil event function")
	}
	return s.AfterArg(delay, runClosure, fn)
}

// AtArg schedules fn(arg) to run at absolute time t. Unlike At it takes a
// long-lived callback plus a per-event argument, so recurring event kinds
// (packet pacing, beacon ticks, retry timers) schedule without allocating
// a closure. Pointer-shaped args (pointers, funcs, maps, channels) do not
// allocate when boxed; scalar or struct args may.
func (s *Scheduler) AtArg(t Time, fn Func, arg any) (Handle, error) {
	if fn == nil {
		return Handle{}, errors.New("sim: nil event function")
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		return Handle{}, fmt.Errorf("sim: non-finite event time %v", t)
	}
	if t < s.now {
		return Handle{}, fmt.Errorf("sim: cannot schedule at %v, now is %v", t, s.now)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.events = append(s.events, event{heap: -1})
		slot = int32(len(s.events) - 1)
	}
	ev := &s.events[slot]
	ev.gen++
	ev.at, ev.seq, ev.fn, ev.arg = t, s.seq, fn, arg
	s.seq++
	s.heapPush(slot)
	return Handle{s: s, slot: slot, gen: ev.gen}, nil
}

// AfterArg schedules fn(arg) to run delay seconds from now; it is AtArg's
// relative-time counterpart. Negative delays are an error.
func (s *Scheduler) AfterArg(delay Time, fn Func, arg any) (Handle, error) {
	if delay < 0 {
		return Handle{}, fmt.Errorf("sim: negative delay %v", delay)
	}
	return s.AtArg(s.now+delay, fn, arg)
}

// Stop halts the run loop after the currently executing event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop was called since the current run loop
// began, so a long event can end its own work early.
func (s *Scheduler) Stopped() bool { return s.stopped }

// release returns a fired or canceled slot to the free list, dropping its
// callback references so the GC is not kept from collecting them.
func (s *Scheduler) release(slot int32) {
	ev := &s.events[slot]
	ev.fn, ev.arg = nil, nil
	ev.heap = -1
	s.free = append(s.free, slot)
}

// step pops and fires the earliest event. It reports whether one fired.
func (s *Scheduler) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	slot := s.popMin()
	ev := &s.events[slot]
	s.now = ev.at
	fn, arg := ev.fn, ev.arg
	// Release before firing: the callback may schedule new events, and
	// letting it reuse this slot keeps the arena at steady-state depth. A
	// Handle to the fired event fails its generation check either way.
	s.release(slot)
	s.fired++
	fn(arg)
	return true
}

// Run executes events until the queue drains. It returns ErrStopped if
// Stop was called first.
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events up to and including time horizon. Events
// scheduled after the horizon remain queued; the clock advances to the
// horizon if the queue drains or only later events remain. It returns
// ErrStopped if Stop was called first.
func (s *Scheduler) RunUntil(horizon Time) error {
	return s.RunUntilContext(context.Background(), horizon)
}

// RunUntilContext is RunUntil with cooperative cancellation: ctx is
// checked between events, never mid-event, so the virtual clock and all
// simulation state remain consistent (deterministic up to the last event
// that fired) when it returns ctx.Err(). A context that can never be
// canceled (context.Background) adds no per-event work — the loop is the
// plain RunUntil loop.
func (s *Scheduler) RunUntilContext(ctx context.Context, horizon Time) error {
	if horizon < s.now {
		return fmt.Errorf("sim: horizon %v is in the past (now %v)", horizon, s.now)
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
		s.step()
	}
	return ErrStopped
}

// less orders two slots by (time, sequence): earlier time first, and FIFO
// scheduling order among events at the same instant. This is the ordering
// contract every golden determinism fingerprint depends on.
func (s *Scheduler) less(a, b int32) bool {
	ea, eb := &s.events[a], &s.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// heapPush appends a slot and restores the heap order.
func (s *Scheduler) heapPush(slot int32) {
	s.heap = append(s.heap, slot)
	s.events[slot].heap = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// popMin removes and returns the earliest queued slot.
func (s *Scheduler) popMin() int32 {
	h := s.heap
	slot := h[0]
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n > 0 {
		s.heap[0] = last
		s.events[last].heap = 0
		s.siftDown(0)
	}
	s.events[slot].heap = -1
	return slot
}

// heapRemove removes the slot at heap position i (Cancel's path).
func (s *Scheduler) heapRemove(i int) {
	h := s.heap
	n := len(h) - 1
	removed := h[i]
	last := h[n]
	s.heap = h[:n]
	if i < n {
		s.heap[i] = last
		s.events[last].heap = int32(i)
		s.siftDown(i)
		if s.heap[i] == last {
			s.siftUp(i)
		}
	}
	s.events[removed].heap = -1
}

// siftUp restores heap order from position i toward the root.
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	slot := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(slot, h[p]) {
			break
		}
		h[i] = h[p]
		s.events[h[i]].heap = int32(i)
		i = p
	}
	h[i] = slot
	s.events[slot].heap = int32(i)
}

// siftDown restores heap order from position i toward the leaves.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	slot := h[i]
	for {
		c := i*4 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.less(h[j], h[best]) {
				best = j
			}
		}
		if !s.less(h[best], slot) {
			break
		}
		h[i] = h[best]
		s.events[h[i]].heap = int32(i)
		i = best
	}
	h[i] = slot
	s.events[slot].heap = int32(i)
}
