package netsim

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/routing"
)

// aodvTransport carries AODV control messages hop-by-hop with FIFO
// (per-round) propagation: each transmission is queued and delivered in
// order, so an RREQ flood expands breadth-first, as per-hop MAC latency
// makes it do in a real network. Delivering inline through the
// zero-latency medium would instead expand the flood depth-first and
// discover serpentine routes. Control energy is charged only when the
// world charges control traffic.
type aodvTransport struct {
	w       *World
	queue   []func() error
	pumping bool
	// scratch is the reusable receiver buffer for flood fan-out queries.
	scratch []NodeID
}

var _ routing.Transport = (*aodvTransport)(nil)

// Broadcast implements routing.Transport.
func (t *aodvTransport) Broadcast(from routing.NodeID, msg any) error {
	w := t.w
	sender := w.nodes[from]
	if sender.dead() {
		return energy.ErrDepleted
	}
	if err := t.charge(sender, w.cfg.Radio.Range); err != nil {
		return err
	}
	// The sender's row narrows the flood fan-out to in-range nodes in
	// O(k); dead nodes are dropped before any delivery is queued (and the
	// closure re-checks, since a node can die between queueing and pump).
	w.freshRows()
	t.scratch = w.appendInRange(t.scratch[:0], from)
	for _, id := range t.scratch {
		n := w.nodes[id]
		if n.dead() {
			continue
		}
		n, from := n, from
		t.queue = append(t.queue, func() error {
			if n.aodv == nil || n.dead() {
				return nil
			}
			return n.aodv.Receive(from, msg)
		})
	}
	return t.pump()
}

// Unicast implements routing.Transport.
func (t *aodvTransport) Unicast(from, to routing.NodeID, msg any) error {
	w := t.w
	sender, receiver := w.nodes[from], w.nodes[to]
	if sender.dead() {
		return energy.ErrDepleted
	}
	d := sender.pos().Dist(receiver.pos())
	if d > w.cfg.Radio.Range {
		return fmt.Errorf("netsim: AODV unicast %d -> %d out of range", from, to)
	}
	if err := t.charge(sender, d); err != nil {
		return err
	}
	t.queue = append(t.queue, func() error {
		if receiver.aodv == nil || receiver.dead() {
			return nil
		}
		return receiver.aodv.Receive(from, msg)
	})
	return t.pump()
}

func (t *aodvTransport) charge(sender *node, dist float64) error {
	if !t.w.cfg.Radio.ChargeControl {
		return nil
	}
	cost := t.w.cfg.Radio.Tx.TxEnergy(dist, t.w.cfg.NotificationBits)
	if err := sender.Battery().Draw(cost, energy.CatControl); err != nil {
		t.w.noteDepletion(sender, err)
		return err
	}
	return nil
}

func (t *aodvTransport) pump() error {
	if t.pumping {
		return nil
	}
	t.pumping = true
	defer func() { t.pumping = false }()
	for len(t.queue) > 0 {
		fn := t.queue[0]
		t.queue = t.queue[1:]
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// DiscoverPath runs AODV route discovery (RREQ flood, RREP reverse-path
// unicast) over the radio medium and returns the discovered src→dst path.
// It exercises the real on-demand protocol instead of an oracle planner:
// the flood, duplicate suppression, and reverse-route learning all happen
// as radio traffic. The radio delivers synchronously, so the flood has
// resolved by the time RequestRoute returns.
func (w *World) DiscoverPath(src, dst NodeID) ([]NodeID, error) {
	if src < 0 || src >= len(w.nodes) || dst < 0 || dst >= len(w.nodes) {
		return nil, fmt.Errorf("netsim: endpoints (%d,%d) out of range", src, dst)
	}
	tr := &aodvTransport{w: w}
	for _, n := range w.nodes {
		if n.aodv == nil {
			inst, err := routing.NewInstance(n.id, tr)
			if err != nil {
				return nil, err
			}
			n.aodv = inst
		}
	}
	if err := w.nodes[src].aodv.RequestRoute(dst); err != nil {
		return nil, err
	}
	path := []NodeID{src}
	cur := src
	for cur != dst {
		next, err := w.nodes[cur].aodv.NextHop(dst)
		if err != nil {
			return nil, fmt.Errorf("netsim: AODV discovery failed: %w", err)
		}
		path = append(path, next)
		cur = next
		if len(path) > len(w.nodes) {
			return nil, errors.New("netsim: AODV routing loop")
		}
	}
	return path, nil
}
