package netsim

import (
	"math/rand"
	"testing"
)

// contains reports whether seq was added to the set.
func (s *seenSet) contains(seq uint64) bool {
	switch {
	case seq > s.top || seq == 0:
		return false
	case s.top-seq < windowBits:
		return s.mask&(1<<(s.top-seq)) != 0
	}
	i := s.holeAt(seq)
	return i == len(s.holes) || s.holes[i].lo > seq
}

// seenChecker drives a seenSet and the map it replaces side by side.
type seenChecker struct {
	t    *testing.T
	set  seenSet
	ref  map[uint64]bool
	next uint64 // the stream's in-order cursor
}

func newSeenChecker(t *testing.T) *seenChecker {
	return &seenChecker{t: t, ref: map[uint64]bool{}, next: 1}
}

func (c *seenChecker) add(seq uint64) {
	c.t.Helper()
	if seq == 0 {
		seq = 1
	}
	want := !c.ref[seq]
	c.ref[seq] = true
	if got := c.set.add(seq); got != want {
		c.t.Fatalf("add(%d) = %v, map says %v", seq, got, want)
	}
}

func (c *seenChecker) query(seq uint64) {
	c.t.Helper()
	if got, want := c.set.contains(seq), c.ref[seq]; got != want {
		c.t.Fatalf("contains(%d) = %v, map says %v", seq, got, want)
	}
}

// back returns the number k below the cursor, clamped to 1.
func (c *seenChecker) back(k uint64) uint64 {
	if k >= c.next {
		return 1
	}
	return c.next - k
}

// step applies one stream operation chosen by op and sized by arg.
func (c *seenChecker) step(op, arg byte) {
	c.t.Helper()
	switch op % 5 {
	case 0: // in order
		c.add(c.next)
		c.next++
	case 1: // reordered or late: a number just below the cursor
		c.add(c.back(uint64(arg%80) + 1))
	case 2: // a jump past the window: the skipped numbers bypassed the node
		c.next += uint64(arg) + windowBits
		c.add(c.next)
		c.next++
	case 3: // a re-send after repair: an old number far below the cursor
		c.add(c.back(uint64(arg) * 7))
	case 4:
		c.query(c.back(uint64(arg)))
		c.query(c.next + uint64(arg))
	}
}

// verify checks the set's representation and then its membership
// against the map: every key of the map is in the set, and the set holds
// exactly as many numbers as the map.
func (c *seenChecker) verify() {
	c.t.Helper()
	s := &c.set
	size := s.top
	for i, r := range s.holes {
		if r.lo < 1 || r.lo > r.hi || r.hi+windowBits > s.top {
			c.t.Fatalf("hole %d = %+v outside [1, top-64] (top %d)", i, r, s.top)
		}
		if i > 0 && s.holes[i-1].hi+1 >= r.lo {
			c.t.Fatalf("holes %+v and %+v unsorted or unmerged", s.holes[i-1], r)
		}
		size -= r.hi - r.lo + 1
		c.query(r.lo - 1)
		c.query(r.lo)
		c.query(r.hi)
		c.query(r.hi + 1)
	}
	for d := uint64(0); d < windowBits && d < s.top; d++ {
		if s.mask&(1<<d) == 0 {
			size--
		}
	}
	for q := range c.ref {
		if !s.contains(q) {
			c.t.Fatalf("contains(%d) = false, map says true", q)
		}
	}
	if size != uint64(len(c.ref)) {
		c.t.Fatalf("set holds %d numbers, map %d", size, len(c.ref))
	}
}

func TestSeenSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newSeenChecker(t)
		for i := 0; i < 2000; i++ {
			c.step(byte(rng.Intn(256)), byte(rng.Intn(256)))
			if i%100 == 0 {
				c.verify()
			}
		}
		c.verify()
	}
}

func TestSeenSetInOrderKeepsNoHoles(t *testing.T) {
	var s seenSet
	for seq := uint64(1); seq <= 10000; seq++ {
		if !s.add(seq) {
			t.Fatalf("add(%d) reported a duplicate", seq)
		}
	}
	if len(s.holes) != 0 || s.mask != ^uint64(0) || s.top != 10000 {
		t.Fatalf("in-order stream left top=%d mask=%x holes=%v", s.top, s.mask, s.holes)
	}
	if s.add(1) || s.add(9990) {
		t.Error("re-adding a seen number reported it new")
	}
}

// FuzzSeenSet drives the duplicate-suppression set against a map with
// streams of in-order, reordered, jumping and re-sent sequence numbers.
func FuzzSeenSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 3})
	f.Add([]byte{0, 0, 1, 2, 0, 0, 1, 5, 1, 0})
	f.Add([]byte{2, 10, 1, 70, 1, 3, 0, 0, 2, 200, 3, 9, 3, 1})
	f.Add([]byte{0, 0, 2, 0, 3, 10, 3, 11, 1, 64, 1, 65, 4, 66})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		c := newSeenChecker(t)
		for i := 0; i+1 < len(ops); i += 2 {
			c.step(ops[i], ops[i+1])
		}
		c.verify()
	})
}
