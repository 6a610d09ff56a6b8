package hello

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// mapTable is the reference model the sorted-slice Table is checked
// against: the straightforward map-backed neighbor table.
type mapTable struct {
	ttl     sim.Time
	entries map[NodeID]Entry
}

func (m *mapTable) expired(e Entry, now sim.Time) bool {
	return m.ttl > 0 && now-e.LastSeen > m.ttl
}

func (m *mapTable) purge(now sim.Time) {
	for id, e := range m.entries {
		if m.expired(e, now) {
			delete(m.entries, id)
		}
	}
}

func (m *mapTable) get(id NodeID, now sim.Time) (Entry, bool) {
	e, ok := m.entries[id]
	if !ok || m.expired(e, now) {
		return Entry{}, false
	}
	return e, true
}

func (m *mapTable) ids(now sim.Time) []NodeID {
	m.purge(now)
	ids := make([]NodeID, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// TestTableMatchesMapModel drives the table and the map model through the
// same seeded random operation sequence, with expiry on and off, and
// requires every answer to be equal.
func TestTableMatchesMapModel(t *testing.T) {
	for _, ttl := range []sim.Time{0, 3} {
		rng := rand.New(rand.NewSource(int64(41 + ttl)))
		tab := NewTable(ttl)
		ref := &mapTable{ttl: ttl, entries: make(map[NodeID]Entry)}
		var now sim.Time
		for op := 0; op < 10000; op++ {
			now += sim.Time(rng.Float64() * 0.2)
			id := rng.Intn(40)
			switch k := rng.Intn(10); {
			case k < 4:
				b := Beacon{ID: id, Position: geom.Pt(rng.Float64(), rng.Float64()), Residual: rng.Float64()}
				tab.Update(b, now)
				ref.entries[id] = Entry{Beacon: b, LastSeen: now}
			case k < 6:
				got, gok := tab.Get(id, now)
				want, wok := ref.get(id, now)
				if gok != wok || got != want {
					t.Fatalf("ttl %v op %d: Get(%d) = %+v,%v, want %+v,%v", ttl, op, id, got, gok, want, wok)
				}
			case k == 6:
				tab.Remove(id)
				delete(ref.entries, id)
			case k == 7:
				ref.purge(now)
				if got, want := tab.Len(now), len(ref.entries); got != want {
					t.Fatalf("ttl %v op %d: Len = %d, want %d", ttl, op, got, want)
				}
			case k == 8:
				if got, want := tab.IDs(now), ref.ids(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("ttl %v op %d: IDs = %v, want %v", ttl, op, got, want)
				}
			default:
				ids := ref.ids(now)
				want := make([]Entry, len(ids))
				for i, id := range ids {
					want[i] = ref.entries[id]
				}
				if got := tab.Snapshot(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("ttl %v op %d: Snapshot = %+v, want %+v", ttl, op, got, want)
				}
			}
		}
	}
}

// TestUpdateBatchMatchesUpdate drives UpdateBatch against sequential
// Update calls on a second table and against the map model, with expiry
// on and off. Batches are random ascending ID runs, sometimes with
// repeated IDs (the later beacon must win), over an ID space small enough
// that they mix refreshes of known rows with inserts at the front,
// middle and back; occasional removals and expiry keep inserts coming.
// Every answer of both tables must match the model after every batch.
func TestUpdateBatchMatchesUpdate(t *testing.T) {
	for _, ttl := range []sim.Time{0, 2} {
		rng := rand.New(rand.NewSource(int64(97 + ttl)))
		merged, seq := NewTable(ttl), NewTable(ttl)
		ref := &mapTable{ttl: ttl, entries: make(map[NodeID]Entry)}
		var now sim.Time
		var batch []Beacon
		for round := 0; round < 3000; round++ {
			now += sim.Time(rng.Float64() * 0.5)
			batch = batch[:0]
			density := rng.Float64()
			for id := 0; id < 60; id++ {
				for rng.Float64() < density*0.5 {
					b := Beacon{ID: id, Position: geom.Pt(rng.Float64(), rng.Float64()), Residual: rng.Float64()}
					batch = append(batch, b)
					if rng.Intn(4) != 0 {
						break
					}
				}
			}
			merged.UpdateBatch(batch, now)
			for _, b := range batch {
				seq.Update(b, now)
				ref.entries[b.ID] = Entry{Beacon: b, LastSeen: now}
			}
			if rng.Intn(5) == 0 {
				id := rng.Intn(60)
				merged.Remove(id)
				seq.Remove(id)
				delete(ref.entries, id)
			}
			for id := 0; id < 60; id++ {
				want, wok := ref.get(id, now)
				for name, tab := range map[string]*Table{"merged": merged, "sequential": seq} {
					if got, gok := tab.Get(id, now); gok != wok || got != want {
						t.Fatalf("ttl %v round %d: %s Get(%d) = %+v,%v, want %+v,%v", ttl, round, name, id, got, gok, want, wok)
					}
				}
			}
			ids := ref.ids(now)
			rows := make([]Entry, len(ids))
			for i, id := range ids {
				rows[i] = ref.entries[id]
			}
			for name, tab := range map[string]*Table{"merged": merged, "sequential": seq} {
				if got := tab.Len(now); got != len(ids) {
					t.Fatalf("ttl %v round %d: %s Len = %d, want %d", ttl, round, name, got, len(ids))
				}
				if got := tab.IDs(now); !reflect.DeepEqual(got, ids) {
					t.Fatalf("ttl %v round %d: %s IDs = %v, want %v", ttl, round, name, got, ids)
				}
				if got := tab.Snapshot(now); !reflect.DeepEqual(got, rows) {
					t.Fatalf("ttl %v round %d: %s Snapshot = %+v, want %+v", ttl, round, name, got, rows)
				}
			}
		}
	}
}

// TestUpdateBatchRefreshAllocFree pins the steady state of a batched
// HELLO round: a batch that only refreshes known neighbors is written in
// place and allocates nothing.
func TestUpdateBatchRefreshAllocFree(t *testing.T) {
	tab := NewTable(0)
	batch := make([]Beacon, 15)
	for i := range batch {
		batch[i] = Beacon{ID: 3 * i}
	}
	tab.UpdateBatch(batch, 0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range batch {
			batch[i].Residual++
		}
		tab.UpdateBatch(batch, 1)
	})
	if allocs != 0 {
		t.Errorf("refreshing 15 known neighbors in one batch allocated %.1f times", allocs)
	}
	if got := tab.Len(1); got != len(batch) {
		t.Errorf("refresh batch changed the table size to %d", got)
	}
}

// BenchmarkTableUpdate measures the steady-state HELLO write: refreshing
// every row of a 15-neighbor table. Refreshes overwrite in place, so the
// loop must not allocate.
func BenchmarkTableUpdate(b *testing.B) {
	const neighbors = 15
	tab := NewTable(10)
	beacons := make([]Beacon, neighbors)
	for i := range beacons {
		beacons[i] = Beacon{ID: 7 * i, Position: geom.Pt(float64(i), 0), Residual: 100}
		tab.Update(beacons[i], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i)
		for _, bc := range beacons {
			tab.Update(bc, now)
		}
	}
	if tab.Len(sim.Time(b.N)) != neighbors {
		b.Fatal("refreshes changed the table size")
	}
}

// TestTableRefreshAllocFree pins the zero-allocation refresh that
// BenchmarkTableUpdate measures.
func TestTableRefreshAllocFree(t *testing.T) {
	tab := NewTable(0)
	for i := 0; i < 15; i++ {
		tab.Update(Beacon{ID: 3 * i}, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 15; i++ {
			tab.Update(Beacon{ID: 3 * i, Residual: 1}, 1)
		}
	})
	if allocs != 0 {
		t.Errorf("refreshing 15 known neighbors allocated %.1f times", allocs)
	}
}
