package spatial

import (
	"reflect"
	"testing"

	"repro/internal/geom"
)

// FuzzGridOps drives the grid and the brute-force reference through the
// same insert/move/remove/query sequence and requires equal answers.
// Coordinates sit near 0 and ±1e12 (negative cells, far-apart points),
// on a quarter-cell lattice so every distance test is exact. Each query
// also becomes a watch, re-checked after every later operation: its
// RegionStamp never decreases, and while the stamp is unchanged its
// result is unchanged too.
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
			p     geom.Point
			r     float64
			stamp uint64
			ids   []int
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
					watches = append(watches, watch{p: p, r: r, stamp: g.RegionStamp(p, r), ids: g.InRange(p, r)})
				}
			}
			if g.Len() != b.Len() {
				t.Fatalf("Len: grid %d, brute %d", g.Len(), b.Len())
			}
			for i := range watches {
				w := &watches[i]
				ids, stamp := g.InRange(w.p, w.r), g.RegionStamp(w.p, w.r)
				if want := b.InRange(w.p, w.r); !reflect.DeepEqual(ids, want) {
					t.Fatalf("InRange(%v, %v): grid %v, brute %v", w.p, w.r, ids, want)
				}
				if stamp < w.stamp {
					t.Fatalf("RegionStamp(%v, %v) went backwards: %d -> %d", w.p, w.r, w.stamp, stamp)
				}
				if stamp == w.stamp && !reflect.DeepEqual(ids, w.ids) {
					t.Fatalf("RegionStamp(%v, %v) unchanged but result changed: %v -> %v", w.p, w.r, w.ids, ids)
				}
				w.stamp, w.ids = stamp, ids
			}
		}
	})
}
