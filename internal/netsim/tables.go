package netsim

// Neighbor tables.
//
// A node's HELLO table is read in exactly two places, flowView and
// linksSurvive, and both run only on a node that holds a flow entry. So
// only such a node, a reader, has its table written as beacons arrive.
// A node becomes a reader when it first gets a flow entry (joinFlow, from
// AddFlow and from a route repair) and stays one. Every other node's
// table is deferred: the world keeps what would have been written, and
// the table is built when the node joins a flow.
//
//   - Base. The t=0 seeding: every node learns its in-range neighbors'
//     t=0 beacons. NewWorld keeps the t=0 row graph (which Graph serves
//     until a node moves) and every node's t=0 beacon; a deferred node's
//     base table is its graph row filled from those beacons.
//   - Log. Every beacon delivered to a live deferred node since: one
//     entry per sender with its beacon and timestamp, closing its run of
//     deferred receivers. Dead receivers are left out, as node.Receive
//     ignores traffic to them.
//   - Replay. A node's table is its materialized table, or else its base
//     table, with the log applied in order: per receiver, one
//     hello.Table.UpdateBatch per run of entries with one timestamp and
//     ascending sender IDs, which has exactly the effect of the per-beacon
//     Updates the node would have received. The result is byte-identical
//     to an eagerly written table, LastSeen and TTL expiry included.
//   - Compaction. Once the log outgrows the bytes the deferred tables
//     would hold (their base rows, a lower bound, since only a purge ever
//     shrinks a table), every deferred table is materialized and the log
//     is cleared, so long and every-round-beaconing runs stay bounded.
//
// Charged-control worlds (ablation A4) make every node a reader at
// NewWorld: their per-message rounds are the eager reference path.

import (
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/hello"
	"repro/internal/sim"
	"repro/internal/topo"
)

// tableRowBytes is what one neighbor-table row holds: its entry and its
// slot in the ids column.
const tableRowBytes = int(unsafe.Sizeof(hello.Entry{}) + unsafe.Sizeof(NodeID(0)))

// loggedBeacon is one sender's entry in the table log: its beacon, when
// it was sent, and the end of its run of receivers in tableLog.recv.
type loggedBeacon struct {
	hello.Beacon
	at  sim.Time
	end int32
}

// tableLog stands in for the deferred tables (see the file comment).
// base is the t=0 row graph and baseAdv every node's t=0 beacon.
// deferredRows counts the base rows of the nodes that are not readers;
// maxBytes, when positive, replaces the compaction bound they give (a
// seam for the tests). bucket, bySender and rows are replay scratch.
type tableLog struct {
	base         *topo.Graph
	baseAdv      []hello.Beacon
	senders      column[loggedBeacon]
	recv         column[int32]
	deferredRows int
	maxBytes     int
	compactions  uint64
	bucket       []int32
	bySender     []int32
	rows         []hello.Beacon
}

// bytes is the log's size.
func (lg *tableLog) bytes() int {
	return lg.senders.n*int(unsafe.Sizeof(loggedBeacon{})) + lg.recv.n*4
}

// bound is the size past which the log is compacted.
func (lg *tableLog) bound() int {
	if lg.maxBytes > 0 {
		return lg.maxBytes
	}
	return lg.deferredRows * tableRowBytes
}

// seedTables is the initial HELLO exchange: every node learns its
// in-range neighbors' position and energy at t=0. It records the base
// and every node's first advert; only readers get a table.
func (w *World) seedTables() {
	w.topoGraph = w.rowGraph(false)
	lg := &w.log
	lg.base = w.topoGraph
	lg.baseAdv = make([]hello.Beacon, len(w.nodes))
	for id, n := range w.nodes {
		n.lastAdvert = n.beacon()
		lg.baseAdv[id] = n.lastAdvert
		lg.deferredRows += len(lg.base.Neighbors(id))
	}
	if w.cfg.Radio.ChargeControl {
		w.eagerTables()
	}
}

// eagerTables makes every node a reader.
func (w *World) eagerTables() {
	for id := range w.nodes {
		w.addReader(id)
	}
}

// joinFlow installs a flow entry on node id, making it a reader. Every
// flow entry is allocated here.
func (w *World) joinFlow(id NodeID, seed *core.Header, prev, next NodeID) *core.FlowEntry {
	w.addReader(id)
	return w.nodes[id].flows.Allocate(seed, prev, next)
}

// addReader makes node id a reader, building its table from its base or
// materialized table and the log.
func (w *World) addReader(id NodeID) {
	if w.store.reader[id] {
		return
	}
	w.store.reader[id] = true
	w.log.deferredRows -= len(w.log.base.Neighbors(id))
	n := w.nodes[id]
	if n.neighbors == nil {
		n.neighbors = w.baseTable(id)
	}
	w.replay(func(r NodeID) *hello.Table {
		if r == id {
			return n.neighbors
		}
		return nil
	})
}

// baseTable builds node id's table as the t=0 seeding left it.
func (w *World) baseTable(id NodeID) *hello.Table {
	lg := &w.log
	t := hello.NewTable(w.cfg.NeighborTTL)
	rows := lg.rows[:0]
	for _, j := range lg.base.Neighbors(id) {
		rows = append(rows, lg.baseAdv[j])
	}
	w.writeRows(t, rows, 0)
	lg.rows = rows
	return t
}

// writeRows merges rows, sorted by ID, into t at time now.
func (w *World) writeRows(t *hello.Table, rows []hello.Beacon, now sim.Time) {
	t.UpdateBatch(rows, now)
	w.tableWrites += uint64(len(rows))
}

// deliverBeacon hands beacon b to live node r: a reader's table takes it
// at once, a deferred node's goes to the log.
func (w *World) deliverBeacon(r NodeID, b hello.Beacon) {
	if w.store.reader[r] {
		w.nodes[r].neighbors.Update(b, w.sched.Now())
		w.tableWrites++
		return
	}
	w.log.recv.add(int32(r))
}

// logBeacon closes the log's run of receivers delivered since the last
// entry under the sender's beacon b, and compacts the log once it
// outgrows its bound. A beacon no deferred node received logs nothing.
func (w *World) logBeacon(b hello.Beacon) {
	lg := &w.log
	end, prev := int32(lg.recv.n), int32(0)
	if lg.senders.n > 0 {
		prev = lg.senders.last().end
	}
	if end == prev {
		return
	}
	lg.senders.add(loggedBeacon{Beacon: b, at: w.sched.Now(), end: end})
	if lg.bytes() > lg.bound() {
		w.compact()
	}
}

// compact materializes every deferred table and clears the log.
func (w *World) compact() {
	for id, n := range w.nodes {
		if n.neighbors == nil {
			n.neighbors = w.baseTable(id)
		}
	}
	w.replay(func(r NodeID) *hello.Table {
		if w.store.reader[r] {
			return nil
		}
		return w.nodes[r].neighbors
	})
	lg := &w.log
	lg.senders.reset()
	lg.recv.reset()
	lg.compactions++
}

// replay applies the log to the tables pick returns for its receivers
// (nil skips one). A stable counting sort groups the logged pairs by
// receiver, each group listing its senders in log order.
func (w *World) replay(pick func(NodeID) *hello.Table) {
	lg := &w.log
	if lg.senders.n == 0 {
		return
	}
	pairs := int(lg.senders.last().end)
	// bucket[r+1] counts r's pairs; after the prefix sum bucket[r] is
	// where r's group starts, and the scatter advances it to where the
	// group ends.
	bucket := slices.Grow(lg.bucket[:0], len(w.nodes)+1)[:len(w.nodes)+1]
	clear(bucket)
	for i := range pairs {
		bucket[*lg.recv.at(i)+1]++
	}
	for r := 1; r < len(bucket); r++ {
		bucket[r] += bucket[r-1]
	}
	bySender := slices.Grow(lg.bySender[:0], pairs)[:pairs]
	from := 0
	for s := range lg.senders.n {
		end := int(lg.senders.at(s).end)
		for i := from; i < end; i++ {
			r := *lg.recv.at(i)
			bySender[bucket[r]] = int32(s)
			bucket[r]++
		}
		from = end
	}
	lo := int32(0)
	for r := range w.nodes {
		hi := bucket[r]
		if hi > lo {
			if t := pick(r); t != nil {
				w.applyLogged(t, bySender[lo:hi])
			}
		}
		lo = hi
	}
	lg.bucket, lg.bySender = bucket, bySender
}

// applyLogged writes the logged beacons of senders idx, in log order,
// into t: one UpdateBatch per run with one timestamp and ascending IDs.
func (w *World) applyLogged(t *hello.Table, idx []int32) {
	lg := &w.log
	rows := lg.rows[:0]
	var at sim.Time
	for _, s := range idx {
		e := lg.senders.at(int(s))
		if len(rows) > 0 && (e.at != at || e.ID < rows[len(rows)-1].ID) {
			w.writeRows(t, rows, at)
			rows = rows[:0]
		}
		rows = append(rows, e.Beacon)
		at = e.at
	}
	w.writeRows(t, rows, at)
	lg.rows = rows
}

// chunkLen is the element count of one chunk of a column.
const chunkLen = 1 << 10

// column is an append-only sequence kept in fixed-size chunks: the log
// of a large world grows to tens of megabytes within a few rounds, and
// a slice would copy it over and over as it grew. reset keeps the
// chunks for reuse.
type column[T any] struct {
	chunks [][]T
	n      int
}

// add appends v.
func (c *column[T]) add(v T) {
	k := c.n / chunkLen
	if k == len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, chunkLen))
	}
	c.chunks[k][c.n%chunkLen] = v
	c.n++
}

// at returns the i-th element.
func (c *column[T]) at(i int) *T { return &c.chunks[i/chunkLen][i%chunkLen] }

// last returns the last element; the column must not be empty.
func (c *column[T]) last() *T { return c.at(c.n - 1) }

// reset empties the column.
func (c *column[T]) reset() { c.n = 0 }
