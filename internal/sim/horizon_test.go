package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file checks that RunUntil is resumable: a scheduler stepped
// through consecutive horizon windows of length L must fire exactly what
// one uninterrupted RunUntil per horizon fires. Two schedulers are driven
// by an identical deterministic script — events that schedule children at
// delays below L (so children land inside the current window and across
// its boundary), cancel earlier events, and call Stop mid-window (so a
// window is left and re-entered part way) — and must agree on firing
// order, cancel outcomes, Pending, Fired, and Now at every run boundary.
// netsim's resumed runs rely on this property.

// windowScriptWorld owns one scheduler's side of the mirrored script. An
// event's behavior is a pure function of (seed, id), so as long as both
// schedulers fire the same ids in the same order they perform identical
// operations; any divergence shows up in the recorded order stream.
type windowScriptWorld struct {
	t    *testing.T
	s    *Scheduler
	seed int64
	// order records fired event ids, and -(id+1) for each successful
	// cancel, so cancel outcomes are compared along with fire order.
	order   []int32
	handles []Handle
	depth   []int
}

func (w *windowScriptWorld) newEvent(depth int) (int, func()) {
	id := len(w.handles)
	w.handles = append(w.handles, Handle{})
	w.depth = append(w.depth, depth)
	return id, func() { w.fire(id) }
}

func (w *windowScriptWorld) schedule(at Time, depth int) {
	id, fn := w.newEvent(depth)
	h, err := w.s.At(at, fn)
	if err != nil {
		w.t.Fatalf("At(%v): %v", at, err)
	}
	w.handles[id] = h
}

func (w *windowScriptWorld) fire(id int) {
	w.order = append(w.order, int32(id))
	r := rand.New(rand.NewSource(w.seed<<20 ^ int64(id)*2654435761))
	if w.depth[id] < 3 {
		for c := r.Intn(3); c > 0; c-- {
			// Short (including zero) delays land children inside the
			// window being run or just past its end.
			delay := Time(r.Intn(8)) / 4
			cid, fn := w.newEvent(w.depth[id] + 1)
			h, err := w.s.After(delay, fn)
			if err != nil {
				w.t.Fatalf("After(%v): %v", delay, err)
			}
			w.handles[cid] = h
		}
	}
	if r.Intn(3) == 0 {
		target := r.Intn(id + 1)
		if w.handles[target].Cancel() {
			w.order = append(w.order, -int32(target)-1)
		}
	}
	if r.Intn(16) == 0 {
		w.s.Stop()
	}
}

// runWindows advances s toward horizon in windows of length l, one
// RunUntil per window, and returns what a single RunUntil(horizon) would:
// nil once the clock reaches horizon, or ErrStopped as soon as an event
// calls Stop.
func runWindows(s *Scheduler, horizon, l Time) error {
	for {
		end := s.Now() + l
		if end >= horizon {
			return s.RunUntil(horizon)
		}
		if err := s.RunUntil(end); err != nil {
			return err
		}
	}
}

func TestWindowedMatchesSerial(t *testing.T) {
	windows := []Time{0.25, 1, 10, 1e9}
	for seed := int64(0); seed < 25; seed++ {
		for _, la := range windows {
			t.Run(fmt.Sprintf("seed=%d/L=%v", seed, la), func(t *testing.T) {
				testWindowedAgainstSerial(t, seed, la)
			})
		}
	}
}

func testWindowedAgainstSerial(t *testing.T, seed int64, window Time) {
	serial := &windowScriptWorld{t: t, s: NewScheduler(), seed: seed}
	windowed := &windowScriptWorld{t: t, s: NewScheduler(), seed: seed}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 30; i++ {
		at := Time(r.Intn(40)) / 2
		serial.schedule(at, 0)
		windowed.schedule(at, 0)
	}

	check := func(ctx string) {
		t.Helper()
		if serial.s.Now() != windowed.s.Now() {
			t.Fatalf("%s: windowed Now = %v, serial %v", ctx, windowed.s.Now(), serial.s.Now())
		}
		if serial.s.Pending() != windowed.s.Pending() {
			t.Fatalf("%s: windowed Pending = %d, serial %d", ctx, windowed.s.Pending(), serial.s.Pending())
		}
		if serial.s.Fired() != windowed.s.Fired() {
			t.Fatalf("%s: windowed Fired = %d, serial %d", ctx, windowed.s.Fired(), serial.s.Fired())
		}
	}

	for _, horizon := range []Time{5, 12.5, 40, 1e6} {
		for round := 0; ; round++ {
			errS := serial.s.RunUntil(horizon)
			errW := runWindows(windowed.s, horizon, window)
			if errors.Is(errS, ErrStopped) != errors.Is(errW, ErrStopped) {
				t.Fatalf("horizon %v round %d: windowed err = %v, serial err = %v", horizon, round, errW, errS)
			}
			check(fmt.Sprintf("horizon %v round %d", horizon, round))
			if errS == nil {
				break
			}
		}
	}

	if len(serial.order) != len(windowed.order) {
		t.Fatalf("windowed ran %d ops, serial %d", len(windowed.order), len(serial.order))
	}
	for i := range serial.order {
		if serial.order[i] != windowed.order[i] {
			t.Fatalf("op %d: windowed %d, serial %d\nwindowed: %v\nserial:   %v",
				i, windowed.order[i], serial.order[i], windowed.order, serial.order)
		}
	}
	if len(serial.order) < 30 {
		t.Fatalf("script fired only %d ops", len(serial.order))
	}
}
