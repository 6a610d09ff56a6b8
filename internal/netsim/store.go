package netsim

import (
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/spatial"
)

// nodeStore is the world's struct-of-arrays node state: the fields every
// hot loop touches — position, battery, alive flag — live in
// dense parallel slices indexed by NodeID, so scans (metrics samples,
// snapshots, beacon rounds, motion ticks) stream through
// contiguous memory instead of chasing *node pointers. The per-node
// protocol state that only matters when a node is actively involved in
// traffic (HELLO table, flow table, AODV instance, retry maps) stays on
// the node struct.
//
// batteries is a value slice sized once at NewWorld and never resized,
// so &batteries[i] is stable and can back radio.Endpoint.Battery.
//
// touched holds one bit per node, set whenever the node's position or
// battery may have changed since a HELLO round last visited it: by
// moveNode and by node.Battery, through which every energy draw goes.
// A round's drift scan visits only the set bits (see hello_round.go).
//
// reader marks the nodes whose neighbor tables are written as beacons
// arrive (see tables.go).
type nodeStore struct {
	pos       []geom.Point
	batteries []energy.Battery
	dead      []bool
	reader    []bool
	touched   []uint64
}

// newNodeStore builds the dense state for n nodes from the caller's
// placement and energy slices (copied; negative energies were validated
// by NewWorld).
func newNodeStore(positions []geom.Point, energies []float64) nodeStore {
	n := len(positions)
	st := nodeStore{
		pos:       append([]geom.Point(nil), positions...),
		batteries: make([]energy.Battery, n),
		dead:      make([]bool, n),
		reader:    make([]bool, n),
		touched:   make([]uint64, (n+63)/64),
	}
	for i := range st.batteries {
		st.batteries[i] = *energy.NewBattery(energies[i])
	}
	return st
}

// pos returns the node's current position from the dense store.
func (n *node) pos() geom.Point { return n.world.store.pos[n.id] }

// dead reports whether the node is dead (depleted or crashed).
func (n *node) dead() bool { return n.world.store.dead[n.id] }

// battery returns the node's battery for reading; the pointer is stable
// because the store's battery slice is sized once at NewWorld. Draws go
// through node.Battery, which marks the node touched.
func (n *node) battery() *energy.Battery { return &n.world.store.batteries[n.id] }

// touch marks node id as changed since a HELLO round last visited it.
func (st *nodeStore) touch(id NodeID) { st.touched[id>>6] |= 1 << (id & 63) }

// touchAll marks every node.
func (st *nodeStore) touchAll() {
	for k := range st.touched {
		st.touched[k] = ^uint64(0)
	}
	if r := len(st.dead) & 63; r != 0 {
		st.touched[len(st.touched)-1] = 1<<r - 1
	}
}

// rowMargin is the Verlet margin s as a fraction of the radio range r.
// The world's neighbor rows list, for every node, the nodes within r + s
// of it at the last build, and a question filters its row by exact
// distance against the current positions. That is exact while every node
// is within s/2 of its anchor, its position at the build: a pair now
// within r was then within r + s. moveNode marks the rows stale once a
// node strays further (less a hair for rounding), and the next question
// rebuilds them on the calling goroutine, never in a round worker.
const rowMargin = 1.0 / 8

// neighborRows is the world's row set and its staleness state. build is
// the builder's Rows, or spatial.BruteRows, the O(n²) oracle.
type neighborRows struct {
	build    func([]geom.Point, float64) (off, ids []int32)
	builder  spatial.RowBuilder
	off, ids []int32
	radius   float64 // r + s, the radius the rows are built at
	anchor   []geom.Point
	drift2   float64 // squared distance from its anchor a node may move
	stale    bool
	builds   uint64 // row builds so far (asserted by the tests)
}

// setMargin sets the margin s for radio range r and marks the rows stale.
func (nr *neighborRows) setMargin(r, s float64) {
	nr.radius = r + s
	lim := s / 2 * (1 - 1e-9)
	nr.drift2 = lim * lim
	nr.stale = true
}

// freshRows rebuilds the rows if a node has strayed too far since the
// last build. Every question calls it first, on the calling goroutine.
func (w *World) freshRows() {
	nr := &w.rows
	if nr.stale {
		nr.off, nr.ids = nr.build(w.store.pos, nr.radius)
		nr.anchor = append(nr.anchor[:0], w.store.pos...)
		nr.stale = false
		nr.builds++
	}
}

// appendInRange appends the nodes in radio range of node id, ascending
// and id excluded, to dst. The rows must be fresh; it only reads, so
// round workers call it concurrently.
func (w *World) appendInRange(dst []NodeID, id NodeID) []NodeID {
	pos := w.store.pos
	p, r2 := pos[id], w.cfg.Radio.Range*w.cfg.Radio.Range
	for _, j := range w.rows.ids[w.rows.off[id]:w.rows.off[id+1]] {
		if pos[j].Dist2(p) <= r2 {
			dst = append(dst, NodeID(j))
		}
	}
	return dst
}

// moveNode is the single write path for node positions: it marks the
// node touched, marks the rows stale once the node strays too far from
// its anchor (NaN counts as too far) and drops the cached topology graph.
func (w *World) moveNode(id NodeID, p geom.Point) {
	w.store.pos[id] = p
	w.store.touch(id)
	w.rows.stale = w.rows.stale || !(p.Dist2(w.rows.anchor[id]) <= w.rows.drift2)
	w.topoGraph = nil
}

// worldLocator adapts the world's rows onto radio.Locator.
type worldLocator struct{ w *World }

// AppendReceivers implements radio.Locator: node from's receiver set,
// from its row. The medium asks at its own range, the radio range.
func (l worldLocator) AppendReceivers(dst []int, from NodeID, _ geom.Point, _ float64) []int {
	l.w.freshRows()
	return l.w.appendInRange(dst, from)
}
