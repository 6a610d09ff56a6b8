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
