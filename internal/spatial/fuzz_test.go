package spatial

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

// FuzzGridOps drives the grid and the brute-force reference through the
// same insert/move/remove/query sequence and requires equal answers.
// Coordinates sit near 0 and ±1e12 (negative cells, far-apart points),
// on a quarter-cell lattice so every distance test is exact. Each query
// also becomes a watch, re-checked against the brute-force answer after
// every later operation.
func FuzzGridOps(f *testing.F) {
	f.Add(byte(2), []byte{0, 1, 0, 4, 4, 0, 2, 0, 250, 3, 3, 5, 0, 4, 4, 1, 1, 0, 9, 9, 2, 2, 0, 0, 0, 3, 9, 0, 8, 8})
	f.Add(byte(0), []byte{0, 7, 1, 128, 127, 0, 8, 2, 1, 1, 3, 3, 1, 128, 127, 1, 7, 1, 0, 0, 3, 6, 2, 1, 1, 2, 8, 0, 0, 0})
	f.Add(byte(1), []byte{0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0, 2, 0, 0, 4, 3, 3, 0, 2, 2, 1, 1, 0, 200, 4, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, cellSel byte, ops []byte) {
		cell := [...]float64{1, 50, 200}[cellSel%3]
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBrute()
		point := func(base, x, y byte) geom.Point {
			off := [...]float64{0, 1e12, -1e12}[base%3]
			return geom.Pt(off+float64(int8(x))*cell/4, off+float64(int8(y))*cell/4)
		}
		type watch struct {
			p geom.Point
			r float64
		}
		var watches []watch
		for ; len(ops) >= 5; ops = ops[5:] {
			kind, id := ops[0]%4, int(ops[1]%32)
			p := point(ops[2], ops[3], ops[4])
			switch kind {
			case 0:
				g.Insert(id, p)
				b.Insert(id, p)
			case 1: // small move relative to the current position
				if q, ok := b.pos[id]; ok {
					p = geom.Pt(q.X+float64(int8(ops[3])%8)*cell/4, q.Y+float64(int8(ops[4])%8)*cell/4)
					g.Move(id, p)
					b.Move(id, p)
				}
			case 2:
				g.Remove(id)
				b.Remove(id)
			default:
				r := [...]float64{0, cell / 4, cell, 2 * cell}[ops[1]%4]
				if len(watches) < 4 {
					watches = append(watches, watch{p: p, r: r})
				}
			}
			if g.Len() != b.Len() {
				t.Fatalf("Len: grid %d, brute %d", g.Len(), b.Len())
			}
			for _, w := range watches {
				if ids, want := g.InRange(w.p, w.r), b.InRange(w.p, w.r); !reflect.DeepEqual(ids, want) {
					t.Fatalf("InRange(%v, %v): grid %v, brute %v", w.p, w.r, ids, want)
				}
			}
		}
	})
}

// FuzzRows checks the row builder against per-point Brute queries and
// BruteRows. Points sit on a quarter-unit lattice around offsets 0,
// ±1e12 (negative cells, sparse fields that double the cell side) and
// ±1e300 (a field too wide for any finite cell), plus a NaN point, so
// distances of exactly r, coincident points and non-finite coordinates
// all occur. The radius runs over zero, a lattice step, exact lattice
// distances, a huge and an infinite value, and a negative one. One
// builder serves both radii of an input, so its scratch is reused.
func FuzzRows(f *testing.F) {
	f.Add(byte(2), []byte{0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 4, 4, 1, 2, 2, 1, 2, 2, 0, 250, 3})
	f.Add(byte(1), []byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 1, 4, 1, 1, 5, 0, 0, 0, 8, 0})
	f.Add(byte(4), []byte{0, 128, 127, 0, 127, 128, 0, 0, 0, 2, 7, 7, 2, 7, 11, 0, 4, 3})
	f.Fuzz(func(t *testing.T, rSel byte, data []byte) {
		var pos []geom.Point
		for ; len(data) >= 3 && len(pos) < 64; data = data[3:] {
			off := [...]float64{0, 1e12, -1e12, 1e300, -1e300, math.NaN()}[data[0]%6]
			pos = append(pos, geom.Pt(off+float64(int8(data[1]))/4, off+float64(int8(data[2]))/4))
		}
		var rb RowBuilder
		for _, r := range []float64{
			[...]float64{0, 0.25, 1, 1.25, 5, 1e200, math.Inf(1), -1}[rSel%8],
			[...]float64{0.5, 2, 1e13}[rSel%3],
		} {
			b := NewBrute()
			for i, p := range pos {
				b.Insert(i, p)
			}
			off, ids := rb.Rows(pos, r)
			boff, bids := BruteRows(pos, r)
			if !slices.Equal(off, boff) || !slices.Equal(ids, bids) {
				t.Fatalf("r=%v over %v: Rows %v %v, BruteRows %v %v", r, pos, off, ids, boff, bids)
			}
			for i, p := range pos {
				want := slices.DeleteFunc(b.InRange(p, r), func(j int) bool { return j == i })
				row := ids[off[i]:off[i+1]]
				if len(row) != len(want) {
					t.Fatalf("r=%v: row %d = %v, Brute query %v", r, i, row, want)
				}
				for k, j := range row {
					if int(j) != want[k] {
						t.Fatalf("r=%v: row %d = %v, Brute query %v", r, i, row, want)
					}
				}
			}
		}
	})
}
