package spatial

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// cellSlack widens the sweep's cells just past r: a cell coordinate is off
// by far less than 2^-16 cells in any field of fewer than 2^31 points, so
// two points within r never land two cells apart. minCell floors the cell
// side, since coordinate differences below about 1e-162 square to zero
// and so lie within any radius.
const (
	cellSlack = 1 + 1.0/(1<<16)
	minCell   = 1e-150
)

// RowBuilder builds neighbour rows: for every point, every other point
// within r, found by one sweep instead of one range query per point. The
// zero value is ready; it keeps its scratch buffers between builds, so a
// rebuild over a point set of stable size allocates nothing.
type RowBuilder struct {
	off    []int32
	pairs  []int32 // the swept pairs (a, b) interleaved; then the rows
	owners []int32 // each point's owners, grouped by the point
	cursor []int32
	start  []int32 // each cell's first slot in order and cpos
	order  []int32 // point IDs in cell order
	cpos   []geom.Point
}

// Rows returns the neighbour rows of pos at radius r: point i's
// neighbours are ids[off[i]:off[i+1]], in ascending ID order and i
// excluded. Membership is the Index contract's, Dist2 <= r*r, so row i is
// InRange(pos[i], r) without i. A negative or NaN radius yields empty
// rows. The slices are the builder's and stay valid until its next build.
//
// Each unordered pair of nearby points gets one Dist2 test, which is
// exactly symmetric and so decides both rows. Two counting passes turn
// the pairs into rows: the first groups each pair's two owners under its
// neighbour, the second walks neighbours in ascending order onto their
// owners' rows, which therefore come out sorted.
func (b *RowBuilder) Rows(pos []geom.Point, r float64) (off, ids []int32) {
	n := len(pos)
	b.off = slices.Grow(b.off[:0], n+1)[:n+1]
	clear(b.off)
	nx, ok := b.bucket(pos, r)
	if !ok {
		return BruteRows(pos, r)
	}
	pairs := b.sweep(b.pairs[:0], nx, r*r)
	b.pairs = pairs
	for _, id := range pairs {
		b.off[id+1]++
	}
	for i := 1; i <= n; i++ {
		b.off[i] += b.off[i-1]
	}
	b.owners = slices.Grow(b.owners[:0], len(pairs))[:len(pairs)]
	cursor := append(b.cursor[:0], b.off[:n]...)
	for k := 0; k < len(pairs); k += 2 {
		a, z := pairs[k], pairs[k+1]
		b.owners[cursor[z]] = a
		cursor[z]++
		b.owners[cursor[a]] = z
		cursor[a]++
	}
	// The pairs are consumed: the rows reuse their buffer.
	b.cursor = append(cursor[:0], b.off[:n]...)
	for x := range n {
		for _, o := range b.owners[b.off[x]:b.off[x+1]] {
			pairs[b.cursor[o]] = int32(x)
			b.cursor[o]++
		}
	}
	return b.off, pairs
}

// bucket counting-sorts the points into a dense row-major array of
// square cells over their bounding box, and returns the array's width.
// The cell side starts just over r and doubles while the box would need
// more than about 4n cells, which bounds the array for sparse fields and
// tiny radii. ok is false when r is negative, NaN or so large that r*r
// overflows, or when the box is not finite (a coordinate is infinite or
// NaN, which min and max propagate, or the points span more than the
// largest float): no finite cell then works, and BruteRows takes over.
func (b *RowBuilder) bucket(pos []geom.Point, r float64) (nx int, ok bool) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	spanX, spanY := max(maxX-minX, 0), max(maxY-minY, 0)
	if !(r >= 0) || math.IsInf(r*r, 1) || !(spanX < math.Inf(1)) || !(spanY < math.Inf(1)) {
		return 0, false
	}
	side := max(r*cellSlack, minCell)
	for (math.Floor(spanX/side)+1)*(math.Floor(spanY/side)+1) > 4*float64(len(pos))+4 {
		side *= 2
	}
	nx = int(spanX/side) + 1
	cells := nx * (int(spanY/side) + 1)
	cell := func(p geom.Point) int { return int((p.Y-minY)/side)*nx + int((p.X-minX)/side) }
	b.start = slices.Grow(b.start[:0], cells+1)[:cells+1]
	clear(b.start)
	for _, p := range pos {
		b.start[cell(p)+1]++
	}
	for c := 1; c <= cells; c++ {
		b.start[c] += b.start[c-1]
	}
	b.order = slices.Grow(b.order[:0], len(pos))[:len(pos)]
	b.cpos = slices.Grow(b.cpos[:0], len(pos))[:len(pos)]
	// Scatter in ID order, so each cell lists its points ascending; the
	// scatter advances start[c] to c's end, which the shift restores.
	for i, p := range pos {
		c := cell(p)
		b.order[b.start[c]], b.cpos[b.start[c]] = int32(i), p
		b.start[c]++
	}
	copy(b.start[1:], b.start[:cells])
	b.start[0] = 0
	return nx, true
}

// sweep appends every pair of bucketed points within r2 of each other to
// pairs. Each cell is tested against itself and four of its eight
// neighbours, so each pair of adjacent cells once: its east cell, whose
// slots follow its own, and the three cells above, one contiguous run.
func (b *RowBuilder) sweep(pairs []int32, nx int, r2 float64) []int32 {
	start, order, cpos := b.start, b.order, b.cpos
	cells := len(start) - 1
	for c := range cells {
		lo, hi := start[c], start[c+1]
		if lo == hi {
			continue
		}
		cx := c % nx
		east := hi
		if cx+1 < nx {
			east = start[c+2]
		}
		var upLo, upHi int32
		if u := c + nx; u < cells {
			upLo, upHi = start[u-min(cx, 1)], start[u+1+min(nx-1-cx, 1)]
		}
		for i := lo; i < hi; i++ {
			p, a := cpos[i], order[i]
			for j := i + 1; j < east; j++ {
				if cpos[j].Dist2(p) <= r2 {
					pairs = append(pairs, a, order[j])
				}
			}
			for j := upLo; j < upHi; j++ {
				if cpos[j].Dist2(p) <= r2 {
					pairs = append(pairs, a, order[j])
				}
			}
		}
	}
	return pairs
}

// BruteRows is Rows by the O(n²) definition: row i lists, in ascending
// order, every j != i with Dist2(pos[j], pos[i]) <= r*r. It is the
// reference the swept rows are tested against.
func BruteRows(pos []geom.Point, r float64) (off, ids []int32) {
	off = make([]int32, len(pos)+1)
	for i, p := range pos {
		for j := 0; j < len(pos) && r >= 0; j++ {
			if j != i && pos[j].Dist2(p) <= r*r {
				ids = append(ids, int32(j))
			}
		}
		off[i+1] = int32(len(ids))
	}
	return off, ids
}
