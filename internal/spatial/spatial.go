// Package spatial provides the simulator's neighbor indexes: dynamic
// planar point sets answering "which nodes lie within radius r of point
// p?". The uniform Grid answers in O(k) for k reported neighbors by
// bucketing points into radio-range-sized cells, replacing the O(n)
// scans that capped the simulator at paper scale (100 nodes); the Brute
// index is the straightforward linear scan, kept as the reference
// implementation for differential testing.
//
// Both implementations honor the same contract so they are drop-in
// interchangeable:
//
//   - membership is judged on squared Euclidean distance,
//     Dist2(p, q) <= r*r, so boundary points at exactly radius r are
//     included and grid and brute-force answers agree bit-for-bit;
//   - query results are returned in ascending ID order, preserving the
//     simulator's determinism guarantee (one seed, one byte-identical
//     run) regardless of which index serves the query;
//   - IDs are dense non-negative indices chosen by the caller (netsim
//     uses node IDs, FromPoints slice positions); the grid indexes its
//     per-ID state by them.
//
// The package is deliberately dependency-free (geom only) so every layer
// — topo graphs, the radio medium, netsim worlds, experiment drivers —
// can share one index.
package spatial

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Index is a dynamic set of identified points supporting range queries.
// Implementations must return query results in ascending ID order and
// judge membership by squared distance (see the package comment).
type Index interface {
	// Insert adds id at p. Inserting an existing id relocates it (Insert
	// and Move are synonyms; both exist so call sites read naturally).
	Insert(id int, p geom.Point)
	// Move relocates id to p, inserting it if absent.
	Move(id int, p geom.Point)
	// Remove deletes id. Removing an absent id is a no-op.
	Remove(id int)
	// Len returns the number of indexed points.
	Len() int
	// InRange returns the IDs of every point q with Dist2(p, q) <= r*r,
	// in ascending ID order. A negative radius yields nil.
	InRange(p geom.Point, r float64) []int
	// AppendInRange appends the InRange result to dst and returns the
	// extended slice. It performs no allocation when dst has capacity,
	// which keeps the simulator's per-beacon queries allocation-free.
	AppendInRange(dst []int, p geom.Point, r float64) []int
}

// Kind names an Index implementation, for configuration surfaces.
type Kind string

// The available index implementations.
const (
	// KindGrid is the uniform-grid index: O(k) queries, O(1) updates.
	KindGrid Kind = "grid"
	// KindBrute is the exhaustive linear scan: O(n) queries, the
	// reference implementation grid answers are tested against.
	KindBrute Kind = "brute"
)

// Validate checks that k names a known implementation. The empty Kind is
// valid and means KindGrid (the default).
func (k Kind) Validate() error {
	switch k {
	case "", KindGrid, KindBrute:
		return nil
	default:
		return fmt.Errorf("spatial: unknown index kind %q", string(k))
	}
}

// New returns an empty index of the given kind. cellSize sizes the grid
// cells — the query radius the index will mostly serve (the radio range)
// is the natural choice — and is ignored by the brute-force index. The
// empty kind builds a grid.
func New(kind Kind, cellSize float64) (Index, error) {
	switch kind {
	case "", KindGrid:
		return NewGrid(cellSize)
	case KindBrute:
		return NewBrute(), nil
	default:
		return nil, fmt.Errorf("spatial: unknown index kind %q", string(kind))
	}
}

// FromPoints builds an index of the given kind over pts, with point i
// indexed under ID i — the layout of every parallel node slice in the
// simulator.
func FromPoints(kind Kind, cellSize float64, pts []geom.Point) (Index, error) {
	idx, err := New(kind, cellSize)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		idx.Insert(i, p)
	}
	return idx, nil
}

// cellKey addresses one grid cell by its integer cell coordinates.
type cellKey struct{ cx, cy int }

// hash mixes both cell coordinates for the cell table's linear probing.
func (k cellKey) hash() uint64 {
	h := (uint64(k.cx)*0x9E3779B97F4A7C15 ^ uint64(k.cy)) * 0xBF58476D1CE4E5B9
	return h ^ h>>31
}

// gridEntry is one bucketed point: the ID and its exact position. The
// position lives in the bucket (not only in the where column) so range
// queries filter candidates with a cache-friendly slice scan.
type gridEntry struct {
	id  int
	pos geom.Point
}

// gridCell is one slot of the open-addressed cell table. Every insert,
// removal and position update (in-place ones too) in the cell bumps its
// epoch, so epoch 0 marks an empty slot. A cell keeps its slot and epoch
// after it empties, so RegionStamp sums are monotone.
type gridCell struct {
	key    cellKey
	epoch  uint64
	bucket []gridEntry
}

// gridSlot records where an ID currently lives: its cell and its index
// within that cell's bucket (maintained across swap-deletes).
type gridSlot struct {
	key cellKey
	idx int32
	in  bool
}

// maxGridID bounds IDs, which index the where column, so a huge ID cannot
// allocate without bound (radio.maxNodeID bounds endpoints the same way).
const maxGridID = 1 << 24

// Grid is a uniform-grid Index: the plane is cut into cellSize×cellSize
// cells and each point is bucketed by its cell. A range query visits only
// the cells overlapping the query disk's bounding box — with cellSize
// equal to the query radius that is at most 9 cells regardless of how
// many points the index holds, so queries cost O(k) in the number of
// points near the query, not O(n) in the index size.
//
// IDs are dense indices in [0, 1<<24), as every caller uses them: the
// where column is indexed by ID and Insert panics outside that range.
// The cell table (power-of-two, linear probing, at most half full) holds
// only ever-occupied cells, so memory stays O(points + occupied cells)
// however far apart the points are.
//
// Grid is not safe for concurrent use; like the rest of the simulator it
// is single-threaded within one world (parallel sweeps give each trial
// its own world and therefore its own index).
type Grid struct {
	cell  float64
	cells []gridCell // len is zero or a power of two
	used  int        // claimed slots in cells
	where []gridSlot // indexed by ID
	n     int
	// bounds clamp query scans to cells that have ever been occupied, so
	// a huge query radius degrades to the brute-force cost instead of
	// iterating empty space. They only grow; stale slack is harmless.
	minC, maxC cellKey
	hasBounds  bool
	// rebuckets counts relocations across cell boundaries. Moves within a
	// cell update the bucketed position in place and do not count — the
	// invariant that keeps high-frequency small-step mobility (ambient
	// motion at ~1 m/s against radio-range-sized cells) on the cheap
	// in-place path.
	rebuckets uint64
}

var _ Index = (*Grid)(nil)

// NewGrid returns an empty grid with the given cell side length. The cell
// size must be positive and finite; the query radius the grid will serve
// (the radio range) is the natural choice.
func NewGrid(cellSize float64) (*Grid, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("spatial: invalid grid cell size %v", cellSize)
	}
	return &Grid{cell: cellSize}, nil
}

// CellSize returns the grid's cell side length.
func (g *Grid) CellSize() float64 { return g.cell }

// Rebuckets returns how many Insert/Move calls relocated an existing id
// across a cell boundary. Within-cell moves are updated in place and do
// not count; the ambient-mobility layer relies on this (a node stepping
// ~1 m against 200 m cells re-buckets roughly once per 200 steps), and
// the 100k-node scaling work will budget against this counter.
func (g *Grid) Rebuckets() uint64 { return g.rebuckets }

// keyOf returns the cell containing p.
func (g *Grid) keyOf(p geom.Point) cellKey {
	return cellKey{
		cx: int(math.Floor(p.X / g.cell)),
		cy: int(math.Floor(p.Y / g.cell)),
	}
}

// lookup returns k's slot, or nil if k has never been occupied.
func (g *Grid) lookup(k cellKey) *gridCell {
	if len(g.cells) == 0 {
		return nil
	}
	if c := g.probe(k); c.epoch != 0 {
		return c
	}
	return nil
}

// claim returns k's slot, claiming an empty one if k is new; the caller
// bumps the epoch before the next table operation. It may rehash, which
// invalidates every slot pointer taken before it.
func (g *Grid) claim(k cellKey) *gridCell {
	if 2*(g.used+1) > len(g.cells) {
		old := g.cells
		g.cells = make([]gridCell, max(16, 2*len(old)))
		for _, c := range old {
			if c.epoch != 0 {
				*g.probe(c.key) = c
			}
		}
	}
	c := g.probe(k)
	if c.epoch == 0 {
		c.key = k
		g.used++
	}
	return c
}

// probe walks k's linear-probe sequence to k's slot or, if k is absent,
// the empty slot that ends the sequence.
func (g *Grid) probe(k cellKey) *gridCell {
	mask := uint64(len(g.cells) - 1)
	i := k.hash() & mask
	for g.cells[i].epoch != 0 && g.cells[i].key != k {
		i = (i + 1) & mask
	}
	return &g.cells[i]
}

// Insert implements Index.
func (g *Grid) Insert(id int, p geom.Point) {
	if id < 0 || id >= maxGridID {
		panic(fmt.Sprintf("spatial: grid id %d out of range [0, %d)", id, maxGridID))
	}
	if id >= len(g.where) {
		g.where = append(g.where, make([]gridSlot, id+1-len(g.where))...)
	}
	k := g.keyOf(p)
	slot := &g.where[id]
	if slot.in && slot.key == k {
		// Same cell: update the bucketed position in place.
		c := g.lookup(k)
		c.epoch++
		c.bucket[slot.idx].pos = p
		return
	}
	c := g.claim(k)
	c.epoch++
	if slot.in {
		g.rebuckets++
		g.unbucket(*slot)
	} else {
		g.n++
	}
	*slot = gridSlot{key: k, idx: int32(len(c.bucket)), in: true}
	c.bucket = append(c.bucket, gridEntry{id: id, pos: p})
	g.grow(k)
}

// Move implements Index.
func (g *Grid) Move(id int, p geom.Point) { g.Insert(id, p) }

// Remove implements Index.
func (g *Grid) Remove(id int) {
	if id < 0 || id >= len(g.where) || !g.where[id].in {
		return
	}
	g.unbucket(g.where[id])
	g.where[id].in = false
	g.n--
}

// unbucket bumps the epoch of slot's cell and removes the entry at slot
// from its bucket (swap-delete; queries sort their results). The
// swapped-in entry's slot index is patched so where stays consistent,
// and an emptied bucket is released.
func (g *Grid) unbucket(slot gridSlot) {
	c := g.lookup(slot.key)
	c.epoch++
	last := len(c.bucket) - 1
	if int(slot.idx) != last {
		moved := c.bucket[last]
		c.bucket[slot.idx] = moved
		g.where[moved.id].idx = slot.idx
	}
	c.bucket = c.bucket[:last]
	if last == 0 {
		c.bucket = nil
	}
}

// grow widens the occupied-cell bounds to include k.
func (g *Grid) grow(k cellKey) {
	if !g.hasBounds {
		g.minC, g.maxC, g.hasBounds = k, k, true
		return
	}
	g.minC = cellKey{cx: min(g.minC.cx, k.cx), cy: min(g.minC.cy, k.cy)}
	g.maxC = cellKey{cx: max(g.maxC.cx, k.cx), cy: max(g.maxC.cy, k.cy)}
}

// Len implements Index.
func (g *Grid) Len() int { return g.n }

// InRange implements Index.
func (g *Grid) InRange(p geom.Point, r float64) []int {
	return g.AppendInRange(nil, p, r)
}

// span returns the cell rectangle a query at (p, r) visits: the query
// disk's bounding box clamped to the occupied-cell bounds. ok is false
// for a negative radius or an empty grid.
func (g *Grid) span(p geom.Point, r float64) (lo, hi cellKey, ok bool) {
	if r < 0 || !g.hasBounds {
		return lo, hi, false
	}
	lo = g.keyOf(geom.Pt(p.X-r, p.Y-r))
	hi = g.keyOf(geom.Pt(p.X+r, p.Y+r))
	lo = cellKey{cx: max(lo.cx, g.minC.cx), cy: max(lo.cy, g.minC.cy)}
	hi = cellKey{cx: min(hi.cx, g.maxC.cx), cy: min(hi.cy, g.maxC.cy)}
	return lo, hi, true
}

// AppendInRange implements Index.
func (g *Grid) AppendInRange(dst []int, p geom.Point, r float64) []int {
	dst, _ = g.AppendInRangeStamp(dst, p, r)
	return dst
}

// AppendInRangeStamp is AppendInRange that also returns RegionStamp(p, r),
// taken in the same pass over the visited cells: a caller that caches the
// result and revalidates it by stamp pays one cell walk per refresh
// instead of two.
func (g *Grid) AppendInRangeStamp(dst []int, p geom.Point, r float64) ([]int, uint64) {
	lo, hi, ok := g.span(p, r)
	if !ok {
		return dst, 0
	}
	r2 := r * r
	start := len(dst)
	var stamp uint64
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			c := g.lookup(cellKey{cx: cx, cy: cy})
			if c == nil {
				continue
			}
			stamp += c.epoch
			for _, e := range c.bucket {
				if e.pos.Dist2(p) <= r2 {
					dst = append(dst, e.id)
				}
			}
		}
	}
	sort.Ints(dst[start:])
	return dst, stamp
}

// RegionStamp returns a monotone fingerprint of the cells a range query
// at (p, r) would visit: the sum of their modification epochs, clamped to
// the occupied-cell bounds exactly like AppendInRange. Any insert,
// removal, or position change (including an in-place same-cell update)
// of a point inside those cells strictly increases the stamp, and no
// point within distance r of p can live outside them, so a cached
// InRange(p, r) result is still exact whenever its stamp is unchanged —
// provided p's own cell is unchanged too, since the visited rectangle is
// derived from p. netsim's lazy HELLO receiver snapshots revalidate on
// this instead of re-running the query every beacon round.
func (g *Grid) RegionStamp(p geom.Point, r float64) uint64 {
	lo, hi, ok := g.span(p, r)
	if !ok {
		return 0
	}
	var sum uint64
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			if c := g.lookup(cellKey{cx: cx, cy: cy}); c != nil {
				sum += c.epoch
			}
		}
	}
	return sum
}

// Brute is the exhaustive-scan Index: every query walks every indexed
// point. It is the reference implementation the grid is differentially
// tested against, and remains a sensible choice for tiny point sets where
// bucketing overhead exceeds the scan.
type Brute struct {
	ids []int // ascending, so query results need no sort
	pos map[int]geom.Point
}

var _ Index = (*Brute)(nil)

// NewBrute returns an empty brute-force index.
func NewBrute() *Brute {
	return &Brute{pos: make(map[int]geom.Point)}
}

// Insert implements Index.
func (b *Brute) Insert(id int, p geom.Point) {
	if _, ok := b.pos[id]; !ok {
		at := sort.SearchInts(b.ids, id)
		b.ids = append(b.ids, 0)
		copy(b.ids[at+1:], b.ids[at:])
		b.ids[at] = id
	}
	b.pos[id] = p
}

// Move implements Index.
func (b *Brute) Move(id int, p geom.Point) { b.Insert(id, p) }

// Remove implements Index.
func (b *Brute) Remove(id int) {
	if _, ok := b.pos[id]; !ok {
		return
	}
	delete(b.pos, id)
	at := sort.SearchInts(b.ids, id)
	b.ids = append(b.ids[:at], b.ids[at+1:]...)
}

// Len implements Index.
func (b *Brute) Len() int { return len(b.ids) }

// InRange implements Index.
func (b *Brute) InRange(p geom.Point, r float64) []int {
	return b.AppendInRange(nil, p, r)
}

// AppendInRange implements Index.
func (b *Brute) AppendInRange(dst []int, p geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	for _, id := range b.ids {
		if b.pos[id].Dist2(p) <= r2 {
			dst = append(dst, id)
		}
	}
	return dst
}
