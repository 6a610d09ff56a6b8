package netsim

import (
	"sort"

	"repro/internal/core"
)

// seenSet is an exact set of the sequence numbers (≥ 1) one node has
// processed on one flow: the retry transport's duplicate suppression. It
// is the RFC 4303 §3.4.3 anti-replay window made exact: top is the highest
// sequence number seen, mask bit i records top-i for the 64 numbers ending
// at top, and holes lists, ascending, the runs of numbers below the window
// that were never seen. Everything else below the window was seen.
//
// A relay sees a flow's packets almost in order, so the window slides one
// bit per packet and holes stays empty: the set's size does not grow with
// the flow's length, only with the runs of packets that bypassed the node
// (a relay spliced in by route repair, or a packet dropped upstream).
type seenSet struct {
	flow  core.FlowID
	top   uint64 // 0 while empty: sequence numbers start at 1
	mask  uint64
	holes []seqRun
}

// seqRun is the inclusive run [lo, hi] of unseen sequence numbers.
type seqRun struct{ lo, hi uint64 }

// windowBits is the width of the bitmap window.
const windowBits = 64

// add inserts seq (≥ 1) and reports whether it was new.
func (s *seenSet) add(seq uint64) bool {
	if seq > s.top {
		s.advance(seq)
		return true
	}
	if d := s.top - seq; d < windowBits {
		bit := uint64(1) << d
		if s.mask&bit != 0 {
			return false
		}
		s.mask |= bit
		return true
	}
	i := s.holeAt(seq)
	if i == len(s.holes) || s.holes[i].lo > seq {
		return false
	}
	s.fill(i, seq)
	return true
}

// advance slides the window up so seq becomes top. The numbers that fall
// out of the window unseen, and any gap jumped between the old top and the
// new window, become holes; all of them lie above every existing hole.
func (s *seenSet) advance(seq uint64) {
	floor := uint64(1) // lowest number the old window can hold
	if s.top >= windowBits {
		floor = s.top - windowBits + 1
	}
	if seq > windowBits {
		// Numbers below the new window's floor leave the window.
		newFloor := seq - windowBits + 1
		last := min(s.top, newFloor-1)
		for q := floor; q <= last; q++ {
			if s.mask&(1<<(s.top-q)) == 0 {
				s.addHole(q, q)
			}
		}
		if s.top+1 < newFloor {
			s.addHole(s.top+1, newFloor-1)
		}
	}
	if shift := seq - s.top; shift < windowBits {
		s.mask = s.mask<<shift | 1
	} else {
		s.mask = 1
	}
	s.top = seq
}

// addHole appends the run [lo, hi], which lies above every hole held,
// merging it into the last run when the two touch.
func (s *seenSet) addHole(lo, hi uint64) {
	if n := len(s.holes); n > 0 && s.holes[n-1].hi+1 == lo {
		s.holes[n-1].hi = hi
		return
	}
	s.holes = append(s.holes, seqRun{lo, hi})
}

// holeAt returns the index of the first run whose hi is at least seq.
func (s *seenSet) holeAt(seq uint64) int {
	return sort.Search(len(s.holes), func(i int) bool { return s.holes[i].hi >= seq })
}

// fill removes seq from the run at index i, which contains it.
func (s *seenSet) fill(i int, seq uint64) {
	r := &s.holes[i]
	switch {
	case r.lo == seq && r.hi == seq:
		s.holes = append(s.holes[:i], s.holes[i+1:]...)
	case r.lo == seq:
		r.lo++
	case r.hi == seq:
		r.hi--
	default:
		hi := r.hi
		r.hi = seq - 1
		s.holes = append(s.holes, seqRun{})
		copy(s.holes[i+2:], s.holes[i+1:])
		s.holes[i+1] = seqRun{seq + 1, hi}
	}
}
