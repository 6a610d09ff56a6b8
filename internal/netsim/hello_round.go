package netsim

// HELLO rounds.
//
// One round lets every live node whose advertised state has drifted
// re-broadcast its beacon (paper §2). Each beacon reaches every in-range
// live neighbor: a reader's table takes it at once, and every other
// node's goes to the table log, which builds the table when the node
// joins a flow (see tables.go).
//
// Drift scan. shouldBeacon reads only a node's position, its battery and
// its last advert, so its answer can turn true only after the position or
// battery changed. Those writes mark the node in the store's touched set
// (moveNode, and node.Battery, through which every energy draw goes), and
// a round evaluates shouldBeacon only on the touched nodes, walking the
// bitset word by word in ID order and clearing it as it goes. A touched
// node that does not beacon is cleared too: its answer cannot change
// until it is touched again. A served job's ~100 nodes mostly sit still,
// so a round scans the flow's few nodes, not all of them. With
// BeaconMoveEps or BeaconEnergyFrac not positive, an unchanged node
// beacons too, so every node is marked at the start of every round and
// the walk is the full scan.
//
// With control traffic uncharged, a round can change nothing but
// neighbor tables: a send draws no energy, so no node dies and no later
// drift decision moves, and a beacon's receive path only writes its
// receiver's table or the log. Within a round no node moves or dies and
// the neighbor rows are only read (a stale set is rebuilt before the
// round starts). The batched round exploits that: its senders are taken
// in ID order, and the round workers filter their rows into receiver
// sets, each worker a contiguous run of the senders. Then, serially in
// sender order, radio.Medium.AppendBroadcastTo charges each sender,
// consults the fault hook per receiver and counts the same stats as a
// per-message broadcast, but returns the reached receivers instead of
// delivering, and queueBeacon hands the beacon to each live one.
//
// A round of fewer than roundSplit.minSenders senders resolves on the
// calling goroutine alone. Results are byte-identical at any worker
// count (TestDeterminismHelloRoundWorkers).
//
// A charged round (Radio.ChargeControl, ablation A4) keeps the
// per-message path: there a sender can die mid-round and trigger a route
// repair that reads tables. Its sends draw energy and so touch nodes
// during the walk: a touched node past the walk's cursor is visited in
// the same round, as a full scan would see its drawn energy, and one at
// or before the cursor keeps its mark for the next round.

import (
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/energy"
)

const (
	// splitMinSenders is the sender count from which a round runs on
	// more than one worker. A resolve costs about a microsecond
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
// senders a round needs to use more than one, and the senders resolved
// per window.
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

// beaconBatch holds the buffers of the batched HELLO round, reused
// across rounds: senders lists the round's senders, reached is the
// medium's receiver list for one broadcast, and workers holds each round
// worker's buffers.
type beaconBatch struct {
	reached []NodeID
	senders []NodeID
	workers []roundWorker
}

// roundWorker is one round worker's private state: the receiver sets of
// its run of senders, concatenated in ids with ends[i] closing sender
// i's.
type roundWorker struct {
	ids  []NodeID
	ends []int32
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

// batchedHello reports whether HELLO rounds take the batched path; the
// conditions are the commutation argument's (see the file comment).
func (w *World) batchedHello() bool {
	return !w.perMessageHello && !w.cfg.Radio.ChargeControl
}

// beaconRound runs one HELLO round: every live node whose advertised
// state has drifted re-broadcasts its beacon.
func (w *World) beaconRound() error {
	if w.batchedHello() {
		w.batchedRound()
	} else {
		w.scanTouched(true)
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

// batchedRound is the batched round. Drift decisions are taken for the
// whole round up front: with control traffic uncharged, a round's sends
// cannot change a later node's decision.
func (w *World) batchedRound() {
	bb := &w.beacons
	bb.senders = bb.senders[:0]
	w.scanTouched(false)
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
				w.queueBeacon(w.nodes[id], rw.ids[from:rw.ends[i]])
				from = rw.ends[i]
			}
		}
	}
}

// scanTouched is a round's drift scan (see the file comment): it visits
// the touched nodes in ID order, clearing their marks, and evaluates
// shouldBeacon on each live one. A sender beacons at once when send is
// set (the per-message round) and is appended to the batch's senders
// otherwise.
func (w *World) scanTouched(send bool) {
	st := &w.store
	if !(w.cfg.BeaconMoveEps > 0 && w.cfg.BeaconEnergyFrac > 0) {
		st.touchAll()
	}
	words := st.touched
	for k := range words {
		var keep uint64 // marks at or before the cursor, set by this round's sends
		for words[k] != 0 {
			b := bits.TrailingZeros64(words[k])
			words[k] &= words[k] - 1
			id := k<<6 | b
			if st.dead[id] {
				continue
			}
			w.beaconScans++
			n := w.nodes[id]
			if !n.shouldBeacon() {
				continue
			}
			if !send {
				w.beacons.senders = append(w.beacons.senders, id)
				continue
			}
			n.sendBeacon()
			done := uint64(2)<<b - 1
			keep |= words[k] & done
			words[k] &^= done
		}
		words[k] = keep
	}
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
// receivers: it broadcasts the node's beacon through the medium, hands it
// to every reached live receiver, and records it as the node's last
// advertised state.
func (w *World) queueBeacon(n *node, ids []NodeID) {
	bb := &w.beacons
	reached, err := w.medium.AppendBroadcastTo(bb.reached[:0], n.id, ids, w.cfg.HelloBits, energy.CatControl)
	bb.reached = reached
	if err != nil {
		w.noteDepletion(n, err)
		return
	}
	adv := n.beacon()
	n.lastAdvert = adv
	dead := w.store.dead
	for _, id := range reached {
		if !dead[id] {
			w.deliverBeacon(id, adv)
		}
	}
	w.logBeacon(adv)
}
