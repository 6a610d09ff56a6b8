package netsim

// HELLO rounds.
//
// One round lets every live node whose advertised state has drifted
// re-broadcast its beacon (paper §2), and each beacon writes one row into
// every in-range neighbor's table. Delivered one message at a time, a
// round is a random walk over memory: receiver IDs are spatially random,
// so each write chases endpoint → node → table → row into a cold node.
//
// With control traffic uncharged, a round can change nothing but
// neighbor tables: a send draws no energy, so no node dies and no later
// drift decision moves, and a beacon's receive path only writes its
// receiver's table. Each (receiver, sender) row is written at
// most once per round — a node sends at most one beacon per round — with
// the round's single timestamp, and tables are sorted by ID, so the order
// of a round's deliveries cannot be observed. Within a round no node
// moves or dies, the neighbor rows are only read (a stale set is rebuilt
// before the round starts), and each receiver's table is written by one
// merge. The batched round exploits that in two phases, the heavy parts
// of each data-parallel:
//
//   - Send. The round's senders are taken in ID order. The round workers
//     filter their rows into receiver sets, each worker a contiguous run
//     of the senders. Then, serially in sender order,
//     radio.Medium.AppendBroadcastTo charges each sender, consults the
//     fault hook per receiver and counts the same stats as a per-message
//     broadcast, but returns the reached receivers instead of delivering.
//   - Apply. A stable counting sort groups the buffered (receiver, sender)
//     pairs by receiver. The receiver ID range is cut at pair-count
//     quantiles, one range per round worker, and each worker walks its
//     receivers in ascending ID order — nearly sequential in memory,
//     since tables were allocated in ID order at seeding — merging each
//     receiver's ascending run of senders in one hello.Table.UpdateBatch.
//     Dead receivers are skipped, as node.Receive ignores traffic to them.
//
// A round of fewer than roundSplit.minSenders senders runs both phases on
// the calling goroutine alone. Results are byte-identical at any worker
// count (TestDeterminismHelloRoundWorkers).
//
// A charged round (Radio.ChargeControl, ablation A4) keeps the
// per-message path: there a sender can die mid-round and trigger a route
// repair that reads tables.

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/energy"
	"repro/internal/hello"
)

const (
	// beaconBatchPairs caps the (receiver, sender) pairs one apply phase
	// sorts. A larger round is applied in several chunks of whole senders,
	// which the commutation argument allows, so the round buffers stay a
	// few megabytes however many nodes beacon at once.
	beaconBatchPairs = 1 << 18
	// splitMinSenders is the sender count from which a round runs on
	// more than one worker. A resolve or merge costs about a microsecond
	// per sender, so a thousand senders are a millisecond of work, well
	// above the tens of microseconds of waking and joining the workers;
	// the paper-scale worlds (100 nodes) never reach it.
	splitMinSenders = 1024
	// splitWindow caps the senders resolved ahead of the accounting pass,
	// bounding the workers' receiver buffers to a few hundred kilobytes.
	splitWindow = 1 << 11
	// maxRoundWorkers caps the round workers.
	maxRoundWorkers = 8
)

// roundSplit sizes the data-parallel HELLO round: the worker count, the
// senders a round needs to use more than one (also the node count from
// which seeding does), and the senders resolved per window.
// defaultRoundSplit fits it to the host; tests force it onto small
// scenes.
type roundSplit struct {
	workers, minSenders, window int
}

// defaultRoundSplit uses min(GOMAXPROCS, 8) workers.
func defaultRoundSplit() roundSplit {
	return roundSplit{workers: min(runtime.GOMAXPROCS(0), maxRoundWorkers), minSenders: splitMinSenders, window: splitWindow}
}

// parts is the worker count for a round of n senders.
func (s roundSplit) parts(n int) int {
	if n < s.minSenders {
		return 1
	}
	return s.workers
}

// beaconBatch holds the buffers of the batched HELLO round, reused across
// rounds. The sender arrays run in send order: adverts[i] is the i-th
// sender's beacon and ends[i] closes its run of receivers in recv. The
// apply phase's counting sort fills bucket (one slot per node plus one)
// and regroups the sender indexes into bySender by receiver; reached is
// the medium's receiver list for one broadcast. senders lists the round's
// senders, and workers holds each round worker's buffers. maxPairs is the
// apply threshold, beaconBatchPairs outside tests.
type beaconBatch struct {
	maxPairs int
	adverts  []hello.Beacon
	ends     []int32
	recv     []int32
	bucket   []int32
	bySender []int32
	reached  []NodeID
	senders  []NodeID
	workers  []roundWorker
}

// roundWorker is one round worker's private state: the receiver sets of
// its run of senders, concatenated in ids with ends[i] closing sender
// i's, and the row buffer of its merges. Seeding reuses ids and rows.
type roundWorker struct {
	ids  []NodeID
	ends []int32
	rows []hello.Beacon
}

// roundWorkers returns the first parts worker states, growing the set on
// first use.
func (w *World) roundWorkers(parts int) []roundWorker {
	bb := &w.beacons
	for len(bb.workers) < parts {
		bb.workers = append(bb.workers, roundWorker{})
	}
	return bb.workers[:parts]
}

// fork runs f(k) for every part k in [0, parts), part 0 on the calling
// goroutine, and returns once all have finished. Callers run a single
// part directly instead: the closure they would pass escapes to the
// heap, and a 100-node world's rounds should not allocate for it.
func fork(parts int, f func(k int)) {
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for k := 1; k < parts; k++ {
		go func() {
			defer wg.Done()
			f(k)
		}()
	}
	f(0)
	wg.Wait()
}

// batchedHello reports whether HELLO rounds take the two-phase path; the
// conditions are the commutation argument's (see the file comment).
func (w *World) batchedHello() bool {
	return !w.perMessageHello && !w.cfg.Radio.ChargeControl
}

// beaconRound runs one HELLO round: every live node whose advertised
// state has drifted re-broadcasts its beacon.
func (w *World) beaconRound() error {
	dead := w.store.dead
	if w.batchedHello() {
		w.batchedRound()
	} else {
		for i, n := range w.nodes {
			if !dead[i] && n.shouldBeacon() {
				n.sendBeacon()
			}
		}
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

// batchedRound is the two-phase round. Drift decisions are taken for the
// whole round up front: with control traffic uncharged, a round's sends
// cannot change a later node's decision.
func (w *World) batchedRound() {
	bb := &w.beacons
	dead := w.store.dead
	bb.senders = bb.senders[:0]
	for i, n := range w.nodes {
		if !dead[i] && n.shouldBeacon() {
			bb.senders = append(bb.senders, i)
		}
	}
	if len(bb.senders) == 0 {
		return
	}
	w.freshRows()
	parts := w.round.parts(len(bb.senders))
	if parts > 1 {
		w.splitRounds++
	}
	workers := w.roundWorkers(parts)
	for lo := 0; lo < len(bb.senders); lo += w.round.window {
		window := bb.senders[lo:min(lo+w.round.window, len(bb.senders))]
		w.resolveWindow(window, workers)
		for k := range workers {
			rw := &workers[k]
			from := int32(0)
			for i, id := range window[k*len(window)/parts : (k+1)*len(window)/parts] {
				w.queueBeacon(w.nodes[id], rw.ids[from:rw.ends[i]], parts)
				from = rw.ends[i]
			}
		}
	}
	w.applyBeacons(parts)
}

// resolveWindow resolves the receiver sets of a window of senders on the
// round workers: worker k takes the k-th contiguous run of the window.
func (w *World) resolveWindow(window []NodeID, workers []roundWorker) {
	if parts := len(workers); parts == 1 {
		w.resolveRun(window, &workers[0])
	} else {
		fork(parts, func(k int) {
			w.resolveRun(window[k*len(window)/parts:(k+1)*len(window)/parts], &workers[k])
		})
	}
}

// resolveRun resolves the receiver sets of one worker's run of senders
// into its buffers.
func (w *World) resolveRun(run []NodeID, rw *roundWorker) {
	// Work on locals: the worker states share cache lines.
	ids, ends := rw.ids[:0], rw.ends[:0]
	for _, id := range run {
		ids = w.appendInRange(ids, id)
		ends = append(ends, int32(len(ids)))
	}
	rw.ids, rw.ends = ids, ends
}

// queueBeacon is the accounting step for one sender, given its resolved
// receivers: it broadcasts the node's beacon through the medium, buffers
// the reached receivers, and records the beacon as the node's last
// advertised state. A full buffer is applied at once on parts workers
// (see beaconBatchPairs).
func (w *World) queueBeacon(n *node, ids []NodeID, parts int) {
	bb := &w.beacons
	reached, err := w.medium.AppendBroadcastTo(bb.reached[:0], n.id, ids, w.cfg.HelloBits, energy.CatControl)
	bb.reached = reached
	if err != nil {
		w.noteDepletion(n, err)
		return
	}
	adv := n.beacon()
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
		w.applyBeacons(parts)
	}
}

// applyBeacons is the apply phase: it writes every buffered beacon into
// its receivers' tables, receiver by receiver in ascending ID order, on
// parts workers over receiver ranges of about equal pair counts, and
// empties the buffers.
func (w *World) applyBeacons(parts int) {
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
	// Now bucket[r] is where r's group ends. Part k's receivers start at
	// the first whose group ends past k/parts of the pairs.
	workers := w.roundWorkers(parts)
	if parts == 1 {
		workers[0].rows = w.mergeBeacons(0, len(w.nodes), workers[0].rows)
	} else {
		total := len(bb.recv)
		cut := func(k int) int {
			return sort.Search(len(w.nodes), func(r int) bool { return int(bucket[r]) > k*total/parts })
		}
		fork(parts, func(k int) {
			workers[k].rows = w.mergeBeacons(cut(k), cut(k+1), workers[k].rows)
		})
	}
	bb.adverts, bb.ends, bb.recv = bb.adverts[:0], bb.ends[:0], bb.recv[:0]
}

// mergeBeacons merges the sorted pairs of receivers [rlo, rhi) into
// their tables, building each receiver's batch in rows, and returns the
// grown row buffer.
func (w *World) mergeBeacons(rlo, rhi int, rows []hello.Beacon) []hello.Beacon {
	bb := &w.beacons
	now := w.sched.Now()
	dead := w.store.dead
	lo := int32(0)
	if rlo > 0 {
		lo = bb.bucket[rlo-1]
	}
	for r := rlo; r < rhi; r++ {
		hi := bb.bucket[r]
		if hi > lo && !dead[r] {
			rows = rows[:0]
			for _, s := range bb.bySender[lo:hi] {
				rows = append(rows, bb.adverts[s])
			}
			w.nodes[r].neighbors.UpdateBatch(rows, now)
		}
		lo = hi
	}
	return rows
}
