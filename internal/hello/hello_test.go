package hello

import (
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestTableUpdateGet(t *testing.T) {
	tab := NewTable(10)
	b := Beacon{ID: 3, Position: geom.Pt(5, 5), Residual: 42}
	tab.Update(b, 100)
	e, ok := tab.Get(3, 105)
	if !ok {
		t.Fatal("entry should be present")
	}
	if e.Beacon != b || e.LastSeen != 100 {
		t.Errorf("entry = %+v", e)
	}
	if _, ok := tab.Get(99, 105); ok {
		t.Error("unknown neighbor should be absent")
	}
}

func TestTableRefreshReplaces(t *testing.T) {
	tab := NewTable(10)
	tab.Update(Beacon{ID: 1, Position: geom.Pt(0, 0), Residual: 50}, 0)
	tab.Update(Beacon{ID: 1, Position: geom.Pt(9, 9), Residual: 40}, 5)
	e, ok := tab.Get(1, 6)
	if !ok {
		t.Fatal("entry missing")
	}
	if !e.Position.Eq(geom.Pt(9, 9)) || e.Residual != 40 || e.LastSeen != 5 {
		t.Errorf("entry not refreshed: %+v", e)
	}
}

func TestTableClone(t *testing.T) {
	tab := NewTable(10)
	tab.Update(Beacon{ID: 1, Residual: 50}, 0)
	tab.Update(Beacon{ID: 4, Residual: 20}, 3)
	c := tab.Clone()
	c.Update(Beacon{ID: 2, Residual: 7}, 5)
	c.Update(Beacon{ID: 4, Residual: 9}, 5)
	if got := tab.Snapshot(6); len(got) != 2 || got[1].Residual != 20 || got[1].LastSeen != 3 {
		t.Errorf("writing the clone changed the original: %+v", got)
	}
	if got := c.Snapshot(12); len(got) != 2 || got[0].ID != 2 || got[1].Residual != 9 {
		t.Errorf("clone rows %+v, want 2 and 4 refreshed, 1 expired under the original's ttl", got)
	}
}

func TestTableExpiry(t *testing.T) {
	tab := NewTable(10)
	tab.Update(Beacon{ID: 1}, 0)
	if _, ok := tab.Get(1, 10); !ok {
		t.Error("entry at exactly ttl should survive")
	}
	if _, ok := tab.Get(1, 10.001); ok {
		t.Error("entry past ttl should expire")
	}
}

func TestTableNoExpiryWhenDisabled(t *testing.T) {
	tab := NewTable(0)
	tab.Update(Beacon{ID: 1}, 0)
	if _, ok := tab.Get(1, 1e12); !ok {
		t.Error("ttl 0 should disable expiry")
	}
}

func TestTableIDsSortedAndPurged(t *testing.T) {
	tab := NewTable(10)
	tab.Update(Beacon{ID: 5}, 0)
	tab.Update(Beacon{ID: 2}, 8)
	tab.Update(Beacon{ID: 9}, 8)
	ids := tab.IDs(15) // entry 5 (seen at 0) has expired
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 9 {
		t.Errorf("IDs = %v, want [2 9]", ids)
	}
	if tab.Len(15) != 2 {
		t.Errorf("Len = %d, want 2", tab.Len(15))
	}
}

func TestTableSnapshot(t *testing.T) {
	tab := NewTable(0)
	tab.Update(Beacon{ID: 2, Residual: 20}, 0)
	tab.Update(Beacon{ID: 1, Residual: 10}, 0)
	snap := tab.Snapshot(1)
	if len(snap) != 2 || snap[0].ID != 1 || snap[1].ID != 2 {
		t.Errorf("Snapshot = %+v", snap)
	}
}

func TestTableRemove(t *testing.T) {
	tab := NewTable(0)
	tab.Update(Beacon{ID: 1}, 0)
	tab.Remove(1)
	if _, ok := tab.Get(1, 0); ok {
		t.Error("removed entry still present")
	}
}

func TestBeaconerPeriodicity(t *testing.T) {
	sched := sim.NewScheduler()
	var times []sim.Time
	b, err := NewBeaconer(sched, 2, func() error {
		times = append(times, sched.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(7); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{0, 2, 4, 6}
	if len(times) != len(want) {
		t.Fatalf("beacon times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("beacon times = %v, want %v", times, want)
		}
	}
}

func TestBeaconerStop(t *testing.T) {
	sched := sim.NewScheduler()
	count := 0
	b, err := NewBeaconer(sched, 1, func() error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(2.5); err != nil {
		t.Fatal(err)
	}
	b.Stop()
	if b.Running() {
		t.Error("beaconer should not be running after Stop")
	}
	if err := sched.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if count != 3 { // fired at 0, 1, 2
		t.Errorf("count = %d, want 3", count)
	}
}

func TestBeaconerSendErrorStops(t *testing.T) {
	sched := sim.NewScheduler()
	calls := 0
	wantErr := errors.New("radio dead")
	b, err := NewBeaconer(sched, 1, func() error {
		calls++
		if calls >= 2 {
			return wantErr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (stops on error)", calls)
	}
	if b.Running() {
		t.Error("beaconer should stop after send error")
	}
}

func TestBeaconerStartError(t *testing.T) {
	sched := sim.NewScheduler()
	wantErr := errors.New("dead at start")
	b, err := NewBeaconer(sched, 1, func() error { return wantErr })
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); !errors.Is(err, wantErr) {
		t.Errorf("Start err = %v, want %v", err, wantErr)
	}
	if b.Running() {
		t.Error("failed Start should leave beaconer stopped")
	}
}

func TestBeaconerDoubleStart(t *testing.T) {
	sched := sim.NewScheduler()
	count := 0
	b, err := NewBeaconer(sched, 1, func() error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil { // no-op
		t.Fatal(err)
	}
	if err := sched.RunUntil(0.5); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("double Start duplicated beacons: count = %d", count)
	}
}

func TestNewBeaconerValidation(t *testing.T) {
	sched := sim.NewScheduler()
	if _, err := NewBeaconer(nil, 1, func() error { return nil }); err == nil {
		t.Error("nil scheduler should error")
	}
	if _, err := NewBeaconer(sched, 0, func() error { return nil }); err == nil {
		t.Error("zero interval should error")
	}
	if _, err := NewBeaconer(sched, 1, nil); err == nil {
		t.Error("nil send should error")
	}
}
