package spatial

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/stats"
)

// queryBoth runs the same query on both indexes and fails the test on any
// disagreement — the package's central differential property.
func queryBoth(t *testing.T, g, b Index, p geom.Point, r float64) []int {
	t.Helper()
	got := g.InRange(p, r)
	want := b.InRange(p, r)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("InRange(%v, %v): grid %v, brute %v", p, r, got, want)
	}
	return got
}

func newPair(t *testing.T, cell float64) (Index, Index) {
	t.Helper()
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	return g, NewBrute()
}

func TestKindValidate(t *testing.T) {
	for _, k := range []Kind{"", KindGrid, KindBrute} {
		if err := k.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v", k, err)
		}
	}
	if err := Kind("quadtree").Validate(); err == nil {
		t.Error("Validate accepted an unknown kind")
	}
	if _, err := New("quadtree", 1); err == nil {
		t.Error("New accepted an unknown kind")
	}
}

func TestNewGridRejectsBadCellSize(t *testing.T) {
	for _, c := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewGrid(c); err == nil {
			t.Errorf("NewGrid(%v) accepted", c)
		}
	}
}

// TestPropertyRandomTopologies is the headline equivalence property:
// on randomized topologies, every grid query agrees with the brute-force
// reference — including radii far above and below the cell size, queries
// from empty regions, and negative coordinates.
func TestPropertyRandomTopologies(t *testing.T) {
	src := stats.NewSource(7)
	for trial := 0; trial < 30; trial++ {
		cell := src.Uniform(10, 400)
		g, b := newPair(t, cell)
		n := 2 + src.Intn(150)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Spread across negative and positive coordinates.
			pts[i] = geom.Pt(src.Uniform(-800, 800), src.Uniform(-800, 800))
			g.Insert(i, pts[i])
			b.Insert(i, pts[i])
		}
		if g.Len() != n || b.Len() != n {
			t.Fatalf("Len: grid %d, brute %d, want %d", g.Len(), b.Len(), n)
		}
		radii := []float64{0, cell / 3, cell, 2.5 * cell, 5000}
		for q := 0; q < 20; q++ {
			p := geom.Pt(src.Uniform(-900, 900), src.Uniform(-900, 900))
			if q%3 == 0 {
				p = pts[src.Intn(n)] // query from an occupied position
			}
			for _, r := range radii {
				queryBoth(t, g, b, p, r)
			}
		}
	}
}

// TestPropertyMutationSequence applies a long randomized sequence of
// insert/move/remove operations to both indexes, interleaved with
// queries. Moves are drawn small so they frequently cross cell edges
// without leaving the neighborhood — the regime the simulator's
// per-packet node movement produces.
func TestPropertyMutationSequence(t *testing.T) {
	src := stats.NewSource(11)
	const cell = 100.0
	g, b := newPair(t, cell)
	pos := make(map[int]geom.Point)
	for step := 0; step < 3000; step++ {
		id := src.Intn(60)
		switch src.Intn(4) {
		case 0: // insert (or relocate) somewhere fresh
			p := geom.Pt(src.Uniform(-500, 500), src.Uniform(-500, 500))
			g.Insert(id, p)
			b.Insert(id, p)
			pos[id] = p
		case 1: // small move, often across a cell boundary
			p, ok := pos[id]
			if !ok {
				continue
			}
			p = geom.Pt(p.X+src.Uniform(-15, 15), p.Y+src.Uniform(-15, 15))
			g.Move(id, p)
			b.Move(id, p)
			pos[id] = p
		case 2: // remove
			g.Remove(id)
			b.Remove(id)
			delete(pos, id)
		default: // query around a random live point
			if len(pos) == 0 {
				continue
			}
			for _, p := range pos {
				queryBoth(t, g, b, p, cell)
				queryBoth(t, g, b, p, cell/4)
				break
			}
		}
		if g.Len() != b.Len() || g.Len() != len(pos) {
			t.Fatalf("step %d: Len grid %d, brute %d, want %d", step, g.Len(), b.Len(), len(pos))
		}
	}
}

// TestBoundaryInclusion pins the contract's edge cases: a point at
// exactly distance r is included, just beyond is not, and points sitting
// exactly on cell edges and corners are found from every side.
func TestBoundaryInclusion(t *testing.T) {
	const cell = 200.0
	g, b := newPair(t, cell)
	for i, p := range []geom.Point{
		{X: 0, Y: 0},      // cell corner
		{X: 200, Y: 0},    // cell edge
		{X: 200, Y: 200},  // corner shared by four cells
		{X: 400, Y: 100},  // edge
		{X: -200, Y: 0},   // negative-side boundary
		{X: 150, Y: -200}, // negative-side edge
	} {
		g.Insert(i, p)
		b.Insert(i, p)
	}
	// Exact-distance inclusion: a neighbor at exactly r.
	g.Insert(100, geom.Pt(200+cell, 0))
	b.Insert(100, geom.Pt(200+cell, 0))
	got := queryBoth(t, g, b, geom.Pt(200, 0), cell)
	found := false
	for _, id := range got {
		if id == 100 {
			found = true
		}
	}
	if !found {
		t.Errorf("point at exactly r not returned: %v", got)
	}
	// Just beyond r is excluded.
	got = queryBoth(t, g, b, geom.Pt(200, 0), cell-1e-9)
	for _, id := range got {
		if id == 100 {
			t.Errorf("point beyond r returned: %v", got)
		}
	}
	// Queries centered on every boundary point see consistent answers at
	// assorted radii (the loop body asserts grid == brute).
	for _, r := range []float64{0, 1, 199.999999, 200, 200.000001, 300} {
		for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 200}, {X: -200, Y: 0}} {
			queryBoth(t, g, b, p, r)
		}
	}
}

// TestMoveAcrossCellBoundary walks one point across a vertical cell edge
// in sub-epsilon steps and asserts the grid answer flips exactly when the
// brute-force answer flips.
func TestMoveAcrossCellBoundary(t *testing.T) {
	const cell = 200.0
	g, b := newPair(t, cell)
	// Observer sits near the boundary; the walker crosses x = 200.
	g.Insert(0, geom.Pt(350, 50))
	b.Insert(0, geom.Pt(350, 50))
	for i, x := 1, 199.0; x <= 201.0; i, x = i+1, x+0.125 {
		p := geom.Pt(x, 50)
		g.Move(1, p)
		b.Move(1, p)
		queryBoth(t, g, b, geom.Pt(350, 50), 150)  // includes the walker near the end
		queryBoth(t, g, b, p, cell)                // walker's own neighborhood
		queryBoth(t, g, b, geom.Pt(199.5, 50), 10) // straddles the edge
	}
}

// TestRebucketOnlyOnCellCrossing pins the incremental-maintenance
// invariant the ambient-mobility layer relies on: moves within a cell
// update the bucketed position in place, and only a cell-boundary
// crossing pays the unbucket/rebucket map work.
func TestRebucketOnlyOnCellCrossing(t *testing.T) {
	const cell = 200.0
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	g.Insert(0, geom.Pt(50, 50))
	if got := g.Rebuckets(); got != 0 {
		t.Fatalf("fresh insert counted as rebucket: %d", got)
	}
	// 100 small steps inside cell (0,0): no rebucketing.
	for i := 0; i < 100; i++ {
		g.Move(0, geom.Pt(50+float64(i), 50))
	}
	if got := g.Rebuckets(); got != 0 {
		t.Fatalf("within-cell moves rebucketed %d times, want 0", got)
	}
	// Cross into cell (1,0): exactly one rebucket.
	g.Move(0, geom.Pt(250, 50))
	if got := g.Rebuckets(); got != 1 {
		t.Fatalf("cell crossing rebucketed %d times, want 1", got)
	}
	// Move back within the new cell: still one.
	g.Move(0, geom.Pt(399, 50))
	if got := g.Rebuckets(); got != 1 {
		t.Fatalf("within-cell move after crossing rebucketed: %d", got)
	}
	// Removal and re-insert are not rebuckets either.
	g.Remove(0)
	g.Insert(0, geom.Pt(50, 50))
	if got := g.Rebuckets(); got != 1 {
		t.Fatalf("remove+insert counted as rebucket: %d", got)
	}
}

func TestRemoveAbsentAndEmptyQueries(t *testing.T) {
	g, b := newPair(t, 50)
	g.Remove(9)
	b.Remove(9)
	if got := g.InRange(geom.Pt(0, 0), 100); len(got) != 0 {
		t.Errorf("empty grid InRange = %v", got)
	}
	if got := b.InRange(geom.Pt(0, 0), 100); len(got) != 0 {
		t.Errorf("empty brute InRange = %v", got)
	}
	g.Insert(1, geom.Pt(5, 5))
	b.Insert(1, geom.Pt(5, 5))
	queryBoth(t, g, b, geom.Pt(5, 5), -1) // negative radius: empty
	queryBoth(t, g, b, geom.Pt(5, 5), 0)  // zero radius: coincident only
}

// TestFromPoints checks the parallel-slice constructor used by the
// simulator layers.
func TestFromPoints(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 1000, Y: 1000}}
	for _, kind := range []Kind{KindGrid, KindBrute, ""} {
		idx, err := FromPoints(kind, 200, pts)
		if err != nil {
			t.Fatalf("FromPoints(%q): %v", kind, err)
		}
		if idx.Len() != len(pts) {
			t.Fatalf("FromPoints(%q): Len = %d", kind, idx.Len())
		}
		got := idx.InRange(geom.Pt(0, 0), 50)
		if want := []int{0, 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("FromPoints(%q): InRange = %v, want %v", kind, got, want)
		}
	}
}

// TestAppendInRangeReusesBuffer verifies the allocation-free append
// contract: with sufficient capacity the same backing array is reused.
func TestAppendInRangeReusesBuffer(t *testing.T) {
	g, _ := newPair(t, 100)
	for i := 0; i < 8; i++ {
		g.Insert(i, geom.Pt(float64(i), 0))
	}
	buf := make([]int, 0, 16)
	out := g.AppendInRange(buf, geom.Pt(0, 0), 1000)
	if len(out) != 8 {
		t.Fatalf("got %d ids", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("AppendInRange reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.AppendInRange(buf[:0], geom.Pt(0, 0), 1000)
	})
	if allocs != 0 {
		t.Errorf("AppendInRange allocated %.1f times per query", allocs)
	}
}

// TestRegionStampInvalidation pins the RegionStamp caching contract: the
// stamp is unchanged while nothing inside the queried cells changes, and
// strictly increases on any insert, removal, or position update there —
// including in-place same-cell updates, which do not bump Rebuckets but
// must still invalidate cached query results.
func TestRegionStampInvalidation(t *testing.T) {
	g, err := NewGrid(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g.Insert(i, geom.Pt(float64(i)*30, 50))
	}
	q := geom.Pt(100, 50)
	base := g.RegionStamp(q, 100)

	// Unrelated change far outside the queried cells: stamp unchanged.
	g.Insert(99, geom.Pt(2000, 2000))
	if got := g.RegionStamp(q, 100); got != base {
		t.Fatalf("stamp changed on out-of-region insert: %d -> %d", base, got)
	}
	// Re-query twice with no changes: stable.
	if got := g.RegionStamp(q, 100); got != base {
		t.Fatalf("stamp not stable: %d -> %d", base, got)
	}

	// In-place same-cell move inside the region: no rebucket, but the
	// stamp must advance.
	rb := g.Rebuckets()
	g.Move(3, geom.Pt(91, 51))
	if g.Rebuckets() != rb {
		// sanity: this move must be the in-place kind
	} else if got := g.RegionStamp(q, 100); got <= base {
		t.Fatalf("in-place move did not advance stamp: %d -> %d", base, got)
	}
	base = g.RegionStamp(q, 100)

	// Cross-cell move into the region advances it again.
	g.Move(99, geom.Pt(120, 60))
	if got := g.RegionStamp(q, 100); got <= base {
		t.Fatalf("cross-cell move did not advance stamp: %d -> %d", base, got)
	}
	base = g.RegionStamp(q, 100)

	// Removal inside the region advances it.
	g.Remove(3)
	if got := g.RegionStamp(q, 100); got <= base {
		t.Fatalf("removal did not advance stamp: %d -> %d", base, got)
	}

	// Empty grid and negative radius are stamp zero.
	e, _ := NewGrid(100)
	if e.RegionStamp(q, 100) != 0 {
		t.Fatal("empty grid stamp not zero")
	}
	if g.RegionStamp(q, -1) != 0 {
		t.Fatal("negative radius stamp not zero")
	}
}

// TestRegionStampAgreesWithQuery is the differential form: over a random
// mutation sequence, whenever the stamp of a fixed query is unchanged the
// query result is unchanged too (same ids, same order), and the one-pass
// AppendInRangeStamp always agrees with InRange and RegionStamp.
func TestRegionStampAgreesWithQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g, err := NewGrid(50)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Pt(200, 200)
	const r = 50
	lastStamp := g.RegionStamp(q, r)
	lastIDs := append([]int(nil), g.InRange(q, r)...)
	for step := 0; step < 4000; step++ {
		id := rng.Intn(40)
		switch rng.Intn(10) {
		case 0:
			g.Remove(id)
		default:
			g.Move(id, geom.Pt(rng.Float64()*400, rng.Float64()*400))
		}
		stamp := g.RegionStamp(q, r)
		ids := g.InRange(q, r)
		if both, bothStamp := g.AppendInRangeStamp(nil, q, r); bothStamp != stamp || !slices.Equal(both, ids) {
			t.Fatalf("step %d: AppendInRangeStamp = %v, %d; want %v, %d", step, both, bothStamp, ids, stamp)
		}
		if stamp == lastStamp {
			if len(ids) != len(lastIDs) {
				t.Fatalf("step %d: stamp unchanged but result changed: %v -> %v", step, lastIDs, ids)
			}
			for i := range ids {
				if ids[i] != lastIDs[i] {
					t.Fatalf("step %d: stamp unchanged but result changed: %v -> %v", step, lastIDs, ids)
				}
			}
		} else if stamp < lastStamp {
			t.Fatalf("step %d: stamp went backwards: %d -> %d", step, lastStamp, stamp)
		}
		lastStamp, lastIDs = stamp, append(lastIDs[:0], ids...)
	}
}

// TestGridIDBoundsAndSparseMemory pins the dense-ID contract and the
// memory bound: IDs outside [0, maxGridID) panic on Insert and are
// absent for Remove, and far-apart points claim cell-table slots per
// occupied cell, never per cell of their bounding box.
func TestGridIDBoundsAndSparseMemory(t *testing.T) {
	g, err := NewGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, maxGridID} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", id)
				}
			}()
			g.Insert(id, geom.Pt(0, 0))
		}()
		g.Remove(id)
	}
	for i := 0; i < 10; i++ {
		s := float64(i - 5)
		g.Insert(i, geom.Pt(s*1e12, -s*1e12))
	}
	if g.Len() != 10 {
		t.Fatalf("Len = %d, want 10", g.Len())
	}
	if len(g.cells) > 32 {
		t.Errorf("10 occupied cells claimed a %d-slot table", len(g.cells))
	}
	if got := g.InRange(geom.Pt(2e12, -2e12), 1); !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("InRange near a far point = %v, want [7]", got)
	}
}
