package sim

import (
	"errors"
	"math"
	"testing"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	mustAt := func(at Time, id int) {
		t.Helper()
		if _, err := s.At(at, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	mustAt(3, 3)
	mustAt(1, 1)
	mustAt(2, 2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
	if s.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", s.Fired())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("same-time events out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var at Time
	if _, err := s.After(2, func() {
		if _, err := s.After(3, func() { at = s.Now() }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5 {
		t.Errorf("nested After fired at %v, want 5", at)
	}
}

func TestSchedulerErrors(t *testing.T) {
	s := NewScheduler()
	if _, err := s.At(1, nil); err == nil {
		t.Error("nil fn should error")
	}
	if _, err := s.After(-1, func() {}); err == nil {
		t.Error("negative delay should error")
	}
	if _, err := s.At(Time(math.NaN()), func() {}); err == nil {
		t.Error("NaN time should error")
	}
	if _, err := s.At(Time(math.Inf(1)), func() {}); err == nil {
		t.Error("infinite time should error")
	}
	// Advance the clock, then try to schedule in the past.
	if _, err := s.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(5, func() {}); err == nil {
		t.Error("scheduling in the past should error")
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h, err := s.At(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !h.Cancel() {
		t.Error("first Cancel should report true")
	}
	if h.Cancel() {
		t.Error("second Cancel should report false")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	if (Handle{}).Cancel() {
		t.Error("zero Handle Cancel should report false")
	}
}

func TestCancelDoesNotDisturbOthers(t *testing.T) {
	s := NewScheduler()
	var order []int
	var handles []Handle
	for i := 0; i < 20; i++ {
		i := i
		h, err := s.At(Time(i), func() { order = append(order, i) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel the odd ones.
	for i := 1; i < 20; i += 2 {
		handles[i].Cancel()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(order), order)
	}
	for _, id := range order {
		if id%2 != 0 {
			t.Fatalf("canceled event %d fired", id)
		}
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		if _, err := s.At(Time(i), func() {
			count++
			if s.Stopped() {
				t.Errorf("event %d: Stopped before Stop", count)
			}
			if count == 3 {
				s.Stop()
				if !s.Stopped() {
					t.Error("Stopped false right after Stop")
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	// The rest of the queue is intact and can be resumed.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("after resume count = %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		if _, err := s.At(at, func() { fired = append(fired, at) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want events at 1..3", fired)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
	if s.Pending() == 0 {
		t.Error("later events should remain queued")
	}
	// Resume to the end.
	if err := s.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %v, want all 5", fired)
	}
	if s.Now() != 100 {
		t.Errorf("Now = %v, want horizon 100", s.Now())
	}
}

func TestRunUntilPastHorizon(t *testing.T) {
	s := NewScheduler()
	if _, err := s.At(10, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(5); err == nil {
		t.Error("horizon in the past should error")
	}
}

func TestRunUntilInclusiveOfHorizon(t *testing.T) {
	s := NewScheduler()
	fired := false
	if _, err := s.At(3, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("event exactly at horizon should fire")
	}
}

func TestEventSchedulingInsideEvent(t *testing.T) {
	// A classic DES pattern: a recurring beacon re-arming itself.
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			if _, err := s.After(1, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := s.At(0, tick); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 4 {
		t.Errorf("Now = %v, want 4", s.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := NewScheduler()
		var order []int
		// Interleave same-time and different-time events.
		for i := 0; i < 50; i++ {
			i := i
			at := Time(i % 7)
			if _, err := s.At(at, func() { order = append(order, i) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestCancelManyPendingEvents(t *testing.T) {
	// Canceling a large batch of pending events must (a) remove them
	// from the queue eagerly, so Pending() stays accurate and dead
	// entries don't accumulate, and (b) leave the survivors firing in
	// exactly time-then-FIFO order.
	s := NewScheduler()
	const n = 1000
	handles := make([]Handle, 0, n)
	var fired []int
	for i := 0; i < n; i++ {
		i := i
		// Many duplicate timestamps to stress same-time ordering.
		h, err := s.At(Time(i%13), func() { fired = append(fired, i) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel every event except multiples of 7, in a scrambled order.
	canceled := 0
	for step := 0; step < n; step++ {
		i := (step * 37) % n
		if i%7 == 0 {
			continue
		}
		if !handles[i].Cancel() {
			t.Fatalf("cancel %d reported false on first cancel", i)
		}
		canceled++
	}
	survivors := n - canceled
	if got := s.Pending(); got != survivors {
		t.Fatalf("Pending() = %d after canceling, want %d (dead events left in queue)", got, survivors)
	}
	// Double-cancel and cancel-after-fire are no-ops.
	if handles[1].Cancel() {
		t.Error("second cancel reported true")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != survivors {
		t.Fatalf("fired %d events, want %d", len(fired), survivors)
	}
	for k := 1; k < len(fired); k++ {
		a, b := fired[k-1], fired[k]
		// Time order first (time = i%13), FIFO (i ascending) within a time.
		if a%13 > b%13 || (a%13 == b%13 && a >= b) {
			t.Fatalf("ordering corrupted at position %d: %d then %d", k, a, b)
		}
	}
	for _, i := range fired {
		if i%7 != 0 {
			t.Fatalf("canceled event %d fired", i)
		}
	}
	if handles[0].Cancel() {
		t.Error("cancel after fire reported true")
	}
	if s.Pending() != 0 {
		t.Errorf("queue not drained: %d pending", s.Pending())
	}
}

func TestCancelInterleavedWithRun(t *testing.T) {
	// Events canceling other pending events mid-run must not corrupt
	// the heap: ordering of the remaining events is preserved.
	s := NewScheduler()
	var handles []Handle
	var fired []int
	for i := 0; i < 100; i++ {
		i := i
		h, err := s.At(Time(i), func() { fired = append(fired, i) })
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// At t=10, cancel all odd events still pending.
	if _, err := s.At(10.5, func() {
		for i := 11; i < 100; i += 2 {
			handles[i].Cancel()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for k, i := range fired {
		if i != want {
			t.Fatalf("position %d: fired %d, want %d (full order %v)", k, i, want, fired)
		}
		if want < 10 {
			want++
		} else {
			want += 2 // odd events after 10.5 were canceled
		}
	}
	if len(fired) != 11+44 {
		t.Fatalf("fired %d events, want %d", len(fired), 11+44)
	}
}
