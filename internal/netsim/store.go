package netsim

import (
	"math"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// nodeStore is the world's struct-of-arrays node state: the fields every
// hot loop touches — position, battery, alive flag, grid cell — live in
// dense parallel slices indexed by NodeID, so scans (metrics samples,
// snapshots, beacon rounds, the parallel shard workers) stream through
// contiguous memory instead of chasing *node pointers. The per-node
// protocol state that only matters when a node is actively involved in
// traffic (HELLO table, flow table, AODV instance, retry maps) stays on
// the node struct.
//
// batteries is a value slice sized once at NewWorld and never resized,
// so &batteries[i] is stable and can back radio.Endpoint.Battery.
type nodeStore struct {
	pos       []geom.Point
	batteries []energy.Battery
	dead      []bool
	// cellX/cellY are the node's current grid cell coordinates under the
	// radio-range cell size, maintained on every move. They shard the
	// parallel motion precompute spatially and detect cell crossings for
	// the stale-tolerant neighbor snapshots without querying the index.
	cellX []int32
	cellY []int32
}

// newNodeStore builds the dense state for n nodes from the caller's
// placement and energy slices (copied; negative energies were validated
// by NewWorld).
func newNodeStore(positions []geom.Point, energies []float64, cellSize float64) nodeStore {
	n := len(positions)
	st := nodeStore{
		pos:       append([]geom.Point(nil), positions...),
		batteries: make([]energy.Battery, n),
		dead:      make([]bool, n),
		cellX:     make([]int32, n),
		cellY:     make([]int32, n),
	}
	for i := range st.batteries {
		st.batteries[i] = *energy.NewBattery(energies[i])
		st.cellX[i], st.cellY[i] = cellCoords(positions[i], cellSize)
	}
	return st
}

// cellCoords returns p's grid cell under the given cell size, using the
// same floor convention as spatial.Grid.
func cellCoords(p geom.Point, cell float64) (int32, int32) {
	return int32(math.Floor(p.X / cell)), int32(math.Floor(p.Y / cell))
}

// pos returns the node's current position from the dense store.
func (n *node) pos() geom.Point { return n.world.store.pos[n.id] }

// dead reports whether the node is dead (depleted or crashed).
func (n *node) dead() bool { return n.world.store.dead[n.id] }

// battery returns the node's battery; the pointer is stable because the
// store's battery slice is sized once at NewWorld.
func (n *node) battery() *energy.Battery { return &n.world.store.batteries[n.id] }

// moveNode is the single write path for node positions: it updates the
// dense store, the node's cell coordinates, the spatial index, and — on a
// cell crossing — invalidates the node's stale-tolerant receiver
// snapshot so budget-mode HELLO sees the crossing immediately.
func (w *World) moveNode(id NodeID, p geom.Point) {
	st := &w.store
	st.pos[id] = p
	cx, cy := cellCoords(p, w.cellSize)
	if cx != st.cellX[id] || cy != st.cellY[id] {
		st.cellX[id], st.cellY[id] = cx, cy
		if w.recv != nil {
			w.recv[id].valid = false
		}
	}
	w.index.Move(id, p)
}

// recvCache is one node's cached broadcast receiver set (see
// appendReceivers): the ids last returned for this sender, plus the
// validation state for both caching modes — the grid region stamp and
// query position for exact mode, the compute time for budget mode.
type recvCache struct {
	ids      []NodeID
	stamp    uint64
	pos      geom.Point
	at       sim.Time
	valid    bool
	everInit bool
}

// appendReceivers implements the world side of radio.SenderLocator: the
// broadcast receiver set of node from, served from a per-sender cache
// (see resolveReceivers), counting each recomputation in recvRefreshes.
func (w *World) appendReceivers(dst []NodeID, from NodeID, p geom.Point, r float64) []NodeID {
	dst, refreshed := w.resolveReceivers(dst, from, p, r)
	if refreshed {
		w.recvRefreshes++
	}
	return dst
}

// resolveReceivers appends node from's broadcast receiver set to dst and
// reports whether the cached set had to be recomputed.
//
// Exact mode (NeighborStaleness == 0, the default): the cache is reused
// only while the sender's position and the grid's RegionStamp over its
// query rectangle are unchanged — conditions under which the underlying
// range query provably returns the same ids — so results are
// byte-identical to querying the index every time, and a fully
// stationary neighborhood recomputes zero snapshots
// (TestDeterminismStaleNeighborBudget pins it). A sender that moved
// since its last query bumped its own cell's epoch, so its stamp cannot
// match: only an unmoved sender pays for the stamp, and a refresh takes
// the new stamp in the query's own pass.
//
// Budget mode (NeighborStaleness > 0): the cache is reused until the
// sender crosses a grid cell (moveNode invalidates it) or the staleness
// budget expires, and each refresh drops dead nodes. Receiver sets may
// then lag reality by up to one budget — the documented stale-tolerant
// approximation that removes per-beacon range queries under churn.
//
// It writes only from's own cache slot and otherwise reads the index and
// the node store, so distinct senders may be resolved concurrently while
// nothing moves or dies (see hello_round.go).
func (w *World) resolveReceivers(dst []NodeID, from NodeID, p geom.Point, r float64) ([]NodeID, bool) {
	if w.grid == nil || r != w.cfg.Radio.Range {
		return w.index.AppendInRange(dst, p, r), false
	}
	c := &w.recv[from]
	refreshed := false
	if w.cfg.NeighborStaleness > 0 {
		now := w.sched.Now()
		if !c.valid || now-c.at > w.cfg.NeighborStaleness {
			c.ids = w.index.AppendInRange(c.ids[:0], p, r)
			live := c.ids[:0]
			for _, id := range c.ids {
				if !w.store.dead[id] {
					live = append(live, id)
				}
			}
			c.ids = live
			c.at, c.valid = now, true
			refreshed = true
		}
	} else if !c.everInit || c.pos != p || c.stamp != w.grid.RegionStamp(p, r) {
		c.ids, c.stamp = w.grid.AppendInRangeStamp(c.ids[:0], p, r)
		c.pos, c.everInit = p, true
		refreshed = true
	}
	return append(dst, c.ids...), refreshed
}

// worldLocator adapts the world's index and receiver cache onto the
// radio package's locator interfaces.
type worldLocator struct{ w *World }

// AppendInRange implements radio.Locator (uncached reference path).
func (l worldLocator) AppendInRange(dst []int, p geom.Point, r float64) []int {
	return l.w.index.AppendInRange(dst, p, r)
}

// AppendReceivers implements radio.SenderLocator.
func (l worldLocator) AppendReceivers(dst []int, from NodeID, p geom.Point, r float64) []int {
	return l.w.appendReceivers(dst, from, p, r)
}
