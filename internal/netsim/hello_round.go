package netsim

// HELLO rounds.
//
// One round lets every live node whose advertised state has drifted
// re-broadcast its beacon (paper §2), and each beacon writes one row into
// every in-range neighbor's table. Delivered one message at a time, a
// round is a random walk over memory: receiver IDs are spatially random,
// so each write chases endpoint → node → table → row into a cold node.
//
// With control traffic uncharged and a zero-bandwidth radio, a round can
// change nothing but neighbor tables: a send draws no energy, so no node
// dies and no later drift decision moves, and a beacon's receive path only
// writes its receiver's table. Each (receiver, sender) row is written at
// most once per round — a node sends at most one beacon per round — with
// the round's single timestamp, and tables are sorted by ID, so the order
// of a round's deliveries cannot be observed. The batched round exploits
// that in two phases:
//
//   - Send. Senders go in ID order, exactly as the per-message round.
//     radio.Medium.AppendBroadcast charges, resolves receivers, consults
//     the fault hook in the same order and counts the same stats, but
//     returns the reached receivers instead of delivering.
//   - Apply. A stable counting sort groups the buffered (receiver, sender)
//     pairs by receiver; receivers are then walked in ascending ID order
//     — nearly sequential in memory, since tables were allocated in ID
//     order at seeding — and each merges its ascending run of senders in
//     one hello.Table.UpdateBatch. Dead receivers are skipped, as
//     node.Receive ignores traffic to them.
//
// A charged round (Radio.ChargeControl, ablation A4) or a positive-
// bandwidth radio keeps the per-message path: there a sender can die
// mid-round and trigger a route repair that reads tables, or deliveries
// are deferred events interleaved with other traffic.

import (
	"slices"

	"repro/internal/energy"
	"repro/internal/hello"
)

// beaconBatchPairs caps the (receiver, sender) pairs one apply phase
// sorts. A larger round is applied in several chunks of whole senders,
// which the commutation argument allows, so the round buffers stay a
// few megabytes however many nodes beacon at once.
const beaconBatchPairs = 1 << 18

// beaconBatch holds the buffers of the batched HELLO round, reused across
// rounds. The sender arrays run in send order: adverts[i] is the i-th
// sender's beacon and ends[i] closes its run of receivers in recv. The
// apply phase's counting sort fills bucket (one slot per node plus one)
// and regroups the sender indexes into bySender by receiver; rows is the
// one receiver's batch handed to UpdateBatch, and reached the medium's
// receiver list for one broadcast. maxPairs is the apply threshold,
// beaconBatchPairs outside tests.
type beaconBatch struct {
	maxPairs int
	adverts  []hello.Beacon
	ends     []int32
	recv     []int32
	bucket   []int32
	bySender []int32
	rows     []hello.Beacon
	reached  []NodeID
}

// batchedHello reports whether HELLO rounds take the two-phase path; the
// conditions are the commutation argument's (see the file comment).
func (w *World) batchedHello() bool {
	return !w.perMessageHello && w.syncRadio && !w.cfg.Radio.ChargeControl
}

// beaconRound runs one HELLO round: every live node whose advertised
// state has drifted re-broadcasts its beacon.
func (w *World) beaconRound() error {
	dead := w.store.dead
	// Under the parallel scheduler the drift decisions are precomputed
	// across the shard workers. The sends below stay serial in ID order,
	// so decisions and send order equal the serial loop's (shouldBeacon
	// is read-only, and with control traffic uncharged the earlier sends
	// of a round cannot change a later node's decision).
	scan := w.canParallelScan()
	if scan {
		w.scanBeacons()
	}
	batched := w.batchedHello()
	for i, n := range w.nodes {
		if dead[i] || scan && !w.beaconMark[i] || !scan && !n.shouldBeacon() {
			continue
		}
		if batched {
			w.queueBeacon(n)
		} else {
			n.sendBeacon()
		}
	}
	if batched {
		w.applyBeacons()
	}
	if w.afterRound != nil {
		w.afterRound()
	}
	// Watchdog: when every source has finished (or died) and no flow
	// event has happened for a while, the run is over even if in-flight
	// accounting lost a packet to silent loss.
	const quietPeriod = 120
	if w.sched.Now()-w.lastActivity > quietPeriod {
		allDone := true
		for _, fr := range w.flows {
			if !fr.stalled && !fr.source.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			w.sched.Stop()
		}
	}
	return nil
}

// queueBeacon is the send phase for one node: it broadcasts the node's
// beacon through the medium, buffers the reached receivers, and records
// the beacon as the node's last advertised state. A full buffer is
// applied at once (see beaconBatchPairs).
func (w *World) queueBeacon(n *node) {
	bb := &w.beacons
	adv := n.beacon()
	reached, err := w.medium.AppendBroadcast(bb.reached[:0], n.id, w.cfg.HelloBits, energy.CatControl)
	bb.reached = reached
	if err != nil {
		w.noteDepletion(n, err)
		return
	}
	n.lastAdvert = adv
	if len(reached) == 0 {
		return
	}
	bb.adverts = append(bb.adverts, adv)
	for _, id := range reached {
		bb.recv = append(bb.recv, int32(id))
	}
	bb.ends = append(bb.ends, int32(len(bb.recv)))
	if len(bb.recv) >= bb.maxPairs {
		w.applyBeacons()
	}
}

// applyBeacons is the apply phase: it writes every buffered beacon into
// its receivers' tables, receiver by receiver in ascending ID order, and
// empties the buffers.
func (w *World) applyBeacons() {
	bb := &w.beacons
	if len(bb.recv) == 0 {
		return
	}
	// Counting sort by receiver. bucket[r+1] counts r's pairs; after the
	// prefix sum bucket[r] is where r's group starts, and the scatter
	// advances it to where the group ends. Senders are scattered in send
	// order, so each group lists its senders ascending.
	if bb.bucket == nil {
		bb.bucket = make([]int32, len(w.nodes)+1)
	}
	bucket := bb.bucket
	clear(bucket)
	for _, r := range bb.recv {
		bucket[r+1]++
	}
	for r := 1; r < len(bucket); r++ {
		bucket[r] += bucket[r-1]
	}
	bb.bySender = slices.Grow(bb.bySender[:0], len(bb.recv))[:len(bb.recv)]
	lo := int32(0)
	for s, end := range bb.ends {
		for _, r := range bb.recv[lo:end] {
			bb.bySender[bucket[r]] = int32(s)
			bucket[r]++
		}
		lo = end
	}
	now := w.sched.Now()
	dead := w.store.dead
	lo = 0
	for r, n := range w.nodes {
		hi := bucket[r]
		if hi > lo && !dead[r] {
			rows := bb.rows[:0]
			for _, s := range bb.bySender[lo:hi] {
				rows = append(rows, bb.adverts[s])
			}
			n.neighbors.UpdateBatch(rows, now)
			bb.rows = rows
		}
		lo = hi
	}
	bb.adverts, bb.ends, bb.recv = bb.adverts[:0], bb.ends[:0], bb.recv[:0]
}
