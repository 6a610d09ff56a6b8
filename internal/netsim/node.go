package netsim

import (
	"math"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/hello"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// node carries one node's protocol state: HELLO neighbor table, flow
// table, last advertised beacon, AODV instance, and retry-transport state.
// The dense per-node state — position, battery, alive flag —
// lives in the world's struct-of-arrays nodeStore (see store.go) and is
// reached through the pos/battery/dead accessors.
type node struct {
	id        NodeID
	world     *World
	neighbors *hello.Table
	flows     *core.Table
	// lastAdvert is the state this node last broadcast in a HELLO;
	// triggered updates compare against it.
	lastAdvert hello.Beacon
	// aodv is the on-demand routing instance, created when the world
	// uses AODV discovery.
	aodv *routing.Instance
	// xport is the retry-transport state, allocated when the node first
	// sends or receives data under the retry transport
	// (Config.Faults.RetryLimit > 0); nil otherwise.
	xport *transportState
}

// transportState is one node's retry-transport state: its unacked data
// transmissions, found by linear scan (a node paced at one packet per
// interval holds one or two), and one duplicate-suppression set per flow
// it has received data on.
type transportState struct {
	pending []*pendingTx
	seen    []seenSet
}

// index returns the index of key's entry in x.pending, or -1.
func (x *transportState) index(key pendingKey) int {
	for i, pt := range x.pending {
		if pt.key == key {
			return i
		}
	}
	return -1
}

// seenFor returns the duplicate-suppression set for a flow, creating it
// on the flow's first data packet.
func (x *transportState) seenFor(flow core.FlowID) *seenSet {
	for i := range x.seen {
		if x.seen[i].flow == flow {
			return &x.seen[i]
		}
	}
	x.seen = append(x.seen, seenSet{flow: flow})
	return &x.seen[len(x.seen)-1]
}

// ackPacket is the hop-level acknowledgement of one data packet. Acks
// travel by pointer through the world's free list, like data packets.
type ackPacket struct {
	flow core.FlowID
	seq  uint64
}

// pendingKey identifies an in-flight (flow, seq) pair awaiting an ack.
type pendingKey struct {
	flow core.FlowID
	seq  uint64
}

// pendingTx is one unacked data transmission: the header to retransmit,
// the retry budget spent so far, and the armed timeout. It carries its
// owner so the shared retryFn callback can be scheduled with the entry
// itself as argument — no per-timer closure. Entries come from the
// world's free list (World.pendingTxs) and go back to it once they leave
// their owner's pending list with no timer armed.
type pendingTx struct {
	hdr      core.Header
	fr       *flowRuntime
	owner    *node
	key      pendingKey
	attempts int
	timer    sim.Handle
	armed    bool
}

// retryFn is the shared retry-timeout callback (see sim.AfterArg): every
// armed timer schedules this one function with its pendingTx as argument.
func retryFn(arg any) {
	pt := arg.(*pendingTx)
	pt.owner.onRetryTimeout(pt)
}

var _ radio.Endpoint = (*node)(nil)

// Position implements radio.Endpoint.
func (n *node) Position() geom.Point { return n.pos() }

// Battery implements radio.Endpoint. Every energy draw, the medium's and
// the world's own, takes the battery through it, so it marks the node
// touched for the next HELLO round; reads use battery.
func (n *node) Battery() *energy.Battery {
	n.world.store.touch(n.id)
	return n.battery()
}

func (n *node) beacon() hello.Beacon {
	return hello.Beacon{ID: n.id, Position: n.pos(), Residual: n.battery().Residual()}
}

// shouldBeacon reports whether the node's advertised state has drifted
// past the triggered-update thresholds. It only reads node state.
func (n *node) shouldBeacon() bool {
	w := n.world
	// Most nodes are stationary between HELLO rounds (only on-path relays
	// move), so skip the hypot for an unmoved position — Dist(p, p) is
	// exactly 0, making this fast path bit-identical.
	pos := n.pos()
	var moved float64
	if pos != n.lastAdvert.Position {
		moved = pos.Dist(n.lastAdvert.Position)
	}
	drift := math.Abs(n.battery().Residual() - n.lastAdvert.Residual)
	ref := n.lastAdvert.Residual
	if ref < 1 {
		ref = 1
	}
	return moved >= w.cfg.BeaconMoveEps || drift >= w.cfg.BeaconEnergyFrac*ref
}

// sendBeacon broadcasts the node's HELLO and records it as the last
// advertised state. It is the per-message round's send; batched rounds
// use World.queueBeacon (see hello_round.go).
func (n *node) sendBeacon() {
	w := n.world
	b := w.beaconBoxes.get()
	*b = n.beacon()
	_, err := w.medium.Broadcast(n.id, w.cfg.HelloBits, energy.CatControl, b)
	w.beaconBoxes.put(b)
	if err != nil {
		w.noteDepletion(n, err)
		return
	}
	n.lastAdvert = *b
}

// Receive implements radio.Endpoint: dispatch on message type.
func (n *node) Receive(from NodeID, msg any) {
	if n.dead() {
		// A dead relay silently swallows traffic. Without the retry
		// transport, in-flight accounting must still see the packet end;
		// with it, the sender's retry timer owns the packet's fate (it will
		// retransmit, then exhaust into a drop or a route repair), so
		// accounting the loss here would double-count it.
		if pkt, ok := msg.(*dataPacket); ok && !n.world.retryEnabled() {
			if fr := n.world.flow(pkt.hdr.Flow); fr != nil {
				n.world.drop(fr)
			}
		}
		return
	}
	switch m := msg.(type) {
	case *hello.Beacon:
		n.neighbors.Update(*m, n.world.sched.Now())
	case *dataPacket:
		n.onData(from, m)
	case *ackPacket:
		n.onAck(pendingKey{flow: m.flow, seq: m.seq})
	case core.Notification:
		n.onNotification(from, m)
	}
}

// sendReliable transmits a data packet to the flow's current next hop
// under the retry/ack transport: the pending entry is registered before
// the transmission because the medium delivers — and acks — synchronously,
// so by the time Unicast returns the packet may already be acked.
func (n *node) sendReliable(fr *flowRuntime, hdr core.Header) {
	x := n.transport()
	key := pendingKey{flow: hdr.Flow, seq: hdr.Seq}
	if i := x.index(key); i >= 0 {
		// The key is already pending here (a repaired route led the packet
		// back through this node): the new entry supersedes the old one.
		n.release(i)
	}
	pt := n.world.pendingTxs.get()
	*pt = pendingTx{hdr: hdr, fr: fr, owner: n, key: key}
	x.pending = append(x.pending, pt)
	n.transmitPending(pt)
}

// transport returns the node's retry-transport state, allocating it on
// first use.
func (n *node) transport() *transportState {
	if n.xport == nil {
		n.xport = new(transportState)
	}
	return n.xport
}

// release removes the entry at index i from the node's pending list,
// cancels its timer, and returns it to the world's free list. The list's
// order is not kept: lookups are by key.
func (n *node) release(i int) {
	x := n.xport
	pt := x.pending[i]
	last := len(x.pending) - 1
	x.pending[i] = x.pending[last]
	x.pending[last] = nil
	x.pending = x.pending[:last]
	if pt.armed {
		pt.timer.Cancel()
	}
	*pt = pendingTx{}
	n.world.pendingTxs.put(pt)
}

// transmitPending puts one pending packet on the air toward the flow
// table's current next hop and, if it is still unacked afterwards, arms
// the retry timeout.
//
// The radio is synchronous: the ack can release pt inside the Unicast,
// and a relay downstream can take it from the free list before Unicast
// returns, so after the send only the copies taken before it (key, fr)
// are read until pt is found still pending.
func (n *node) transmitPending(pt *pendingTx) {
	w := n.world
	key, fr := pt.key, pt.fr
	entry, err := n.flows.Get(key.flow)
	if err != nil || entry.Next < 0 {
		n.release(n.xport.index(key))
		w.drop(fr)
		return
	}
	pkt := w.packets.get()
	pkt.hdr = pt.hdr
	err = w.medium.Unicast(n.id, entry.Next, pkt.hdr.PayloadBits, energy.CatTx, pkt)
	w.packets.put(pkt)
	i := n.xport.index(key)
	if err != nil {
		if i >= 0 {
			n.release(i)
		}
		w.drop(fr)
		w.noteDepletion(n, err)
		return
	}
	if i < 0 || n.xport.pending[i] != pt {
		return // acked synchronously during the Unicast
	}
	h, err := w.sched.AfterArg(sim.Time(w.cfg.Faults.RetryTimeout), retryFn, pt)
	if err != nil {
		return
	}
	pt.timer, pt.armed = h, true
}

// onRetryTimeout fires when a transmitted packet's ack did not arrive in
// time: retransmit while budget remains, then declare the link broken and
// either repair the route or drop the packet. A node that crashed while
// holding the packet cannot transmit: it drops the packet at once.
func (n *node) onRetryTimeout(pt *pendingTx) {
	w := n.world
	pt.armed = false
	key, fr := pt.key, pt.fr
	if n.dead() {
		n.release(n.xport.index(key))
		w.drop(fr)
		return
	}
	if pt.attempts < w.cfg.Faults.RetryLimit {
		pt.attempts++
		w.transport.Retransmits++
		n.transmitPending(pt)
		return
	}
	// Retry budget exhausted: the next hop is unreachable from here.
	hdr := pt.hdr
	n.release(n.xport.index(key))
	w.transport.LinkBreaks++
	next := -1
	if entry, err := n.flows.Get(key.flow); err == nil {
		next = entry.Next
	}
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindLinkBreak, Node: n.id,
		Flow: uint64(key.flow), Seq: key.seq, Peer: next})
	if w.cfg.Faults.RouteRepair && w.repairFlow(fr, n.id) {
		w.transport.Retransmits++
		n.sendReliable(fr, hdr)
		return
	}
	w.drop(fr)
}

// onAck resolves a pending transmission. Acks that match nothing (the
// packet was already acked, or a retransmission raced its own late ack)
// are counted and ignored.
func (n *node) onAck(key pendingKey) {
	w := n.world
	i := n.transport().index(key)
	if i < 0 {
		w.transport.DupAcks++
		return
	}
	n.release(i)
	w.transport.Acks++
}

// onData executes the Figure 1 FlowOperations for a received data packet.
func (n *node) onData(from NodeID, pkt *dataPacket) {
	w := n.world
	// Operate on the packet's header in place rather than copying it: the
	// sender keeps the box alive until its Unicast returns, and relay
	// processing (ProcessRelay's aggregate updates) owns the header for
	// the remainder of the hop.
	hdr := &pkt.hdr
	fr := w.flow(hdr.Flow)
	if fr == nil {
		return
	}
	if w.retryEnabled() {
		// Ack first — even duplicates, whose previous ack may have been
		// lost — then suppress re-processing of data already seen here.
		ack := w.acks.get()
		*ack = ackPacket{flow: hdr.Flow, seq: hdr.Seq}
		err := w.medium.Unicast(n.id, from, w.cfg.Faults.EffectiveAckBits(), energy.CatControl, ack)
		w.acks.put(ack)
		if err != nil {
			w.noteDepletion(n, err)
			if n.dead() {
				return
			}
		}
		if !n.transport().seenFor(hdr.Flow).add(hdr.Seq) {
			w.transport.DupData++
			return
		}
	}
	entry, err := n.flows.Get(hdr.Flow)
	if err != nil {
		// Flow state was pre-installed at AddFlow; a missing entry means
		// the packet strayed off its pinned path. Drop it.
		w.drop(fr)
		return
	}
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindPacketDelivered, Node: n.id,
		Flow: uint64(hdr.Flow), Seq: hdr.Seq})

	if hdr.Dst == n.id {
		n.deliver(fr, entry, hdr)
		return
	}

	view, ok := n.flowView(entry, hdr)
	if !ok {
		// A flow neighbor is gone from the HELLO table (died or expired):
		// the packet cannot be processed or forwarded.
		w.drop(fr)
		return
	}
	decision, err := core.ProcessRelay(entry, hdr, w.cfg.Strategy, w.cfg.Radio.Tx, w.cfg.Mobility, view)
	if err != nil {
		w.drop(fr)
		return
	}
	// Forward first (from the current position), then move.
	if w.retryEnabled() {
		n.sendReliable(fr, *hdr)
		if n.dead() {
			return
		}
	} else {
		fwd := w.packets.get()
		fwd.hdr = *hdr
		err := w.medium.Unicast(n.id, entry.Next, hdr.PayloadBits, energy.CatTx, fwd)
		w.packets.put(fwd)
		if err != nil {
			w.drop(fr)
			w.noteDepletion(n, err)
			if n.dead() {
				return
			}
		}
	}
	if decision.Move && w.cfg.Mode != ModeNoMobility {
		n.move()
	}
}

// deliver handles arrival at the destination: account the payload and run
// UpdateMobilityStatus.
func (n *node) deliver(fr *flowRuntime, entry *core.FlowEntry, hdr *core.Header) {
	w := n.world
	if fr.inflight > 0 {
		fr.inflight--
	}
	fr.deliveredPkts++
	fr.delivered += hdr.PayloadBits
	fr.lastDelivery = w.sched.Now()
	w.lastActivity = w.sched.Now()
	entry.Enabled = hdr.Enabled
	entry.ResidualBits = hdr.ResidualBits

	if w.cfg.Mode == ModeInformed {
		if dec := core.EvaluateStatus(hdr); dec.Notify {
			fr.notifications++
			w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNotification, Node: n.id,
				Flow: uint64(hdr.Flow), Enable: dec.Enable})
			n.sendNotification(fr, core.Notification{
				Flow: hdr.Flow, Src: hdr.Src, Dst: hdr.Dst,
				Enable: dec.Enable, With: hdr.With, Without: hdr.Without,
			})
		}
	}
	if fr.source.Done() && fr.inflight == 0 {
		w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindFlowDone, Node: n.id,
			Flow: uint64(fr.id), Bits: fr.delivered})
		w.maybeFinish()
	}
}

// sendNotification forwards a status-change notification one hop back
// toward the source along the pinned reverse path.
func (n *node) sendNotification(fr *flowRuntime, note core.Notification) {
	w := n.world
	entry, err := n.flows.Get(note.Flow)
	if err != nil {
		return
	}
	if entry.Prev < 0 {
		return
	}
	if err := w.medium.Unicast(n.id, entry.Prev, w.cfg.NotificationBits, energy.CatControl, note); err != nil {
		w.noteDepletion(n, err)
	}
}

// onNotification relays a feedback packet toward the source, or applies it
// when this node is the source.
func (n *node) onNotification(from NodeID, note core.Notification) {
	w := n.world
	fr := w.flow(note.Flow)
	if fr == nil {
		return
	}
	if note.Src == n.id {
		if err := fr.source.ApplyNotification(note); err == nil {
			fr.statusFlips++
			w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindStatusChange, Node: n.id,
				Flow: uint64(note.Flow), Enable: note.Enable})
		}
		return
	}
	n.sendNotification(fr, note)
}

// flowView assembles the relay's local view for the Fig 1 computation from
// its own state and its HELLO neighbor table.
func (n *node) flowView(entry *core.FlowEntry, hdr *core.Header) (mobility.View, bool) {
	w := n.world
	now := w.sched.Now()
	prev, ok := n.neighbors.Get(entry.Prev, now)
	if !ok {
		return mobility.View{}, false
	}
	next, ok := n.neighbors.Get(entry.Next, now)
	if !ok {
		return mobility.View{}, false
	}
	return mobility.View{
		Prev:         mobility.Peer{ID: prev.ID, Pos: prev.Position, Residual: prev.Residual},
		Self:         mobility.Peer{ID: n.id, Pos: n.pos(), Residual: n.battery().Residual()},
		Next:         mobility.Peer{ID: next.ID, Pos: next.Position, Residual: next.Residual},
		ResidualBits: hdr.ResidualBits,
	}, true
}

// move advances the node one mobility step toward its (possibly combined,
// for multi-flow relays) target, charging locomotion energy.
func (n *node) move() {
	w := n.world
	target, ok := n.combinedTarget()
	if !ok {
		return
	}
	cur := n.pos()
	desired := math.Min(w.cfg.MaxStep, cur.Dist(target))
	if desired < geom.Epsilon {
		return
	}
	// Never break an active flow's links: shrink the step until every
	// flow neighbor stays within radio range (movement that partitions
	// the flows it is meant to optimize is always wrong). A small margin
	// absorbs the neighbors' own concurrent movement.
	for {
		candidate, _ := geom.StepToward(cur, target, desired)
		if n.linksSurvive(candidate) {
			break
		}
		desired /= 2
		if desired < geom.Epsilon {
			return
		}
	}
	cost := w.cfg.Mobility.MoveEnergy(desired)
	if cost > 0 && !n.battery().CanDraw(cost) {
		// Move as far as the battery allows, then die.
		desired = n.battery().Residual() / w.cfg.Mobility.K
		cost = n.battery().Residual()
	}
	if cost > 0 {
		if err := n.Battery().Draw(cost, energy.CatMove); err != nil {
			w.noteDepletion(n, err)
		}
	}
	next, _ := geom.StepToward(cur, target, desired)
	w.moveNode(n.id, next)
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNodeMoved, Node: n.id, Pos: next})
}

// linksSurvive reports whether, at the candidate position, every flow
// neighbor of this node (as known from its HELLO table) remains within
// radio range, with a small margin for the neighbors' own movement.
func (n *node) linksSurvive(candidate geom.Point) bool {
	w := n.world
	now := w.sched.Now()
	const margin = 0.98
	limit := w.cfg.Radio.Range * margin
	w.entryScratch = n.flows.AppendEntries(w.entryScratch[:0])
	for _, e := range w.entryScratch {
		for _, peer := range [2]NodeID{e.Prev, e.Next} {
			if peer < 0 {
				continue
			}
			entry, ok := n.neighbors.Get(peer, now)
			if !ok {
				continue
			}
			// A link already past the margin (e.g. a hop at exactly the
			// radio range) only constrains the step not to worsen it.
			allowed := limit
			if cur := n.pos().Dist(entry.Position); cur > allowed {
				allowed = cur
			}
			if candidate.Dist(entry.Position) > allowed {
				return false
			}
		}
	}
	return true
}

// combinedTarget returns the node's movement target: the single enabled
// flow's strategy target, or the residual-bits-weighted centroid when the
// node relays several enabled flows (the technical-report multi-flow
// extension).
func (n *node) combinedTarget() (geom.Point, bool) {
	w := n.world
	w.entryScratch = n.flows.AppendEntries(w.entryScratch[:0])
	targets := w.targetScratch[:0]
	weights := w.weightScratch[:0]
	for _, e := range w.entryScratch {
		if !e.Enabled || !e.HasTarget || e.Dst == n.id || e.Src == n.id {
			continue
		}
		targets = append(targets, e.Target)
		weights = append(weights, e.ResidualBits)
	}
	w.targetScratch, w.weightScratch = targets, weights
	if len(targets) == 0 {
		return geom.Point{}, false
	}
	combined, err := mobility.WeightedTarget(targets, weights, n.pos())
	if err != nil {
		return geom.Point{}, false
	}
	return combined, true
}

// flow finds a flow runtime by ID.
