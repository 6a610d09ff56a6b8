// Package radio implements the wireless channel substrate: an ideal
// unit-disk medium with power-controlled unicast and broadcast, per-bit
// transmission energy accounting against node batteries, and configurable
// propagation/serialization delay.
//
// The channel is ideal by default (no loss, no MAC contention), matching
// the paper's simulator: its results depend on the energy geometry of the
// network, not on channel dynamics. A Config.Faults hook (satisfied by
// internal/fault's seeded Injector) optionally makes individual deliveries
// lossy; with the hook unset the ideal-channel code path is untouched.
package radio

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// NodeID identifies a registered endpoint.
type NodeID = int

// ErrOutOfRange is returned when the receiver is beyond radio range.
var ErrOutOfRange = errors.New("radio: receiver out of range")

// ErrUnknownNode is returned when a message addresses an unregistered node.
var ErrUnknownNode = errors.New("radio: unknown node")

// Endpoint is the medium's view of a node: where it is, what battery pays
// for its transmissions, and how it receives messages.
type Endpoint interface {
	// Position returns the node's current location; consulted at send time.
	Position() geom.Point
	// Battery returns the battery charged for this node's transmissions.
	Battery() *energy.Battery
	// Receive delivers a message. It runs inside a scheduler event.
	Receive(from NodeID, msg any)
}

// Config parameterizes a Medium.
type Config struct {
	// Tx is the transmission energy model.
	Tx energy.TxModel
	// Range is the maximum communication distance in meters.
	Range float64
	// Bandwidth is the link rate in bits/second used to compute
	// serialization delay. Zero means instantaneous delivery: messages
	// are handed to the receiver synchronously, without a scheduler
	// event (the paper's simulator ignores transmission delay).
	Bandwidth float64
	// ChargeControl controls whether transmissions under
	// energy.CatControl draw from the battery. The paper treats control
	// traffic (HELLO beacons, notifications) as free; ablation A4 charges
	// it.
	ChargeControl bool
	// RxPerBit charges receivers this many joules per received data bit
	// (receiver electronics). The paper's model is transmit-only; zero
	// (the default) reproduces it. Control traffic is charged on receive
	// only when ChargeControl is also set.
	RxPerBit float64
	// Faults, when non-nil, is consulted once per delivery (per unicast,
	// and per receiver of a broadcast) and may declare the delivery lost.
	// The sender still pays transmission energy — loss happens in the
	// channel, after the radio has keyed up. Nil keeps the ideal lossless
	// channel.
	Faults FaultHook
}

// FaultHook decides whether an individual delivery is lost in the channel.
// internal/fault's *Injector satisfies it with a seeded, deterministic
// loss model; tests may install scripted hooks.
type FaultHook interface {
	// Drop reports whether the delivery from→to over distance dist is
	// lost, given the medium's configured range.
	Drop(from, to NodeID, dist, radioRange float64) bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Tx.Validate(); err != nil {
		return err
	}
	if c.Range <= 0 {
		return fmt.Errorf("radio: non-positive range %v", c.Range)
	}
	if c.Bandwidth < 0 {
		return fmt.Errorf("radio: negative bandwidth %v", c.Bandwidth)
	}
	if c.RxPerBit < 0 {
		return fmt.Errorf("radio: negative rx cost %v", c.RxPerBit)
	}
	return nil
}

// Stats counts medium activity.
type Stats struct {
	Unicasts   uint64
	Broadcasts uint64
	Delivered  uint64
	RangeDrops uint64
	DeadDrops  uint64
	// FaultDrops counts deliveries lost to the fault-injection hook.
	FaultDrops uint64
}

// Locator is a spatial view of the registered endpoints: it reports which
// node IDs lie within a radius of a point, in ascending ID order
// (spatial.Index satisfies it). Installing one via UseLocator lets
// Broadcast find its receivers in O(k) instead of scanning every
// registered endpoint.
type Locator interface {
	// AppendInRange appends the IDs of all indexed nodes within r of p to
	// dst, ascending, and returns the extended slice.
	AppendInRange(dst []int, p geom.Point, r float64) []int
}

// SenderLocator is an optional Locator extension: when the installed
// locator also implements it, Broadcast resolves receivers through
// AppendReceivers, passing the sending node's ID so the locator can
// serve a per-sender cached neighbor snapshot (netsim's lazy HELLO
// receiver sets) instead of re-running the range query per broadcast.
// The result contract is AppendInRange's — ascending IDs, the sender
// itself may be included (Broadcast skips it).
type SenderLocator interface {
	Locator
	// AppendReceivers appends the broadcast receiver set of node from,
	// currently at p with radio range r, to dst and returns the extended
	// slice.
	AppendReceivers(dst []int, from NodeID, p geom.Point, r float64) []int
}

// Medium is the shared wireless channel. It is single-threaded, driven by
// the simulation scheduler.
type Medium struct {
	cfg   Config
	sched *sim.Scheduler
	// endpoints is indexed directly by NodeID (nil = unregistered): node
	// IDs are small and dense in every caller (netsim numbers nodes
	// 0..n-1), and slice indexing keeps the two per-unicast lookups off
	// the map hash path. Iterating it ascending is the deterministic
	// broadcast order.
	endpoints []Endpoint
	// locator, when installed, serves broadcast receiver lookups; nil
	// falls back to the linear scan over endpoints. senderLoc is the
	// same locator when it also implements SenderLocator.
	locator   Locator
	senderLoc SenderLocator
	// scratch is the reusable receiver-ID buffer for locator broadcasts;
	// pool recycles the deferred-delivery slots of the positive-bandwidth
	// path so in-flight messages do not allocate per hop.
	scratch []NodeID
	pool    []*delivery
	stats   Stats
}

// maxNodeID bounds endpoint IDs so a mistyped huge ID cannot allocate an
// absurd endpoint table (the slice grows to the largest registered ID).
const maxNodeID = 1 << 24

// NewMedium creates a medium on the given scheduler.
func NewMedium(sched *sim.Scheduler, cfg Config) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, errors.New("radio: nil scheduler")
	}
	return &Medium{
		cfg:   cfg,
		sched: sched,
	}, nil
}

// Register attaches an endpoint under the given ID, replacing any previous
// registration.
func (m *Medium) Register(id NodeID, ep Endpoint) error {
	if ep == nil {
		return errors.New("radio: nil endpoint")
	}
	if id < 0 || id >= maxNodeID {
		return fmt.Errorf("radio: endpoint id %d out of range [0, %d)", id, maxNodeID)
	}
	for len(m.endpoints) <= id {
		m.endpoints = append(m.endpoints, nil)
	}
	m.endpoints[id] = ep
	return nil
}

// endpoint returns the registered endpoint for id, nil if absent.
func (m *Medium) endpoint(id NodeID) Endpoint {
	if id < 0 || id >= len(m.endpoints) {
		return nil
	}
	return m.endpoints[id]
}

// UseLocator installs loc as the broadcast receiver source. The caller
// owns consistency: loc must track exactly the registered endpoints and
// their current positions (netsim.World maintains this through its
// spatial index, updating it on every node move). A nil loc reverts to
// the built-in scan over all registered endpoints.
func (m *Medium) UseLocator(loc Locator) {
	m.locator = loc
	m.senderLoc, _ = loc.(SenderLocator)
}

// Stats returns a copy of the activity counters.
func (m *Medium) Stats() Stats { return m.stats }

// Range returns the configured communication range.
func (m *Medium) Range() float64 { return m.cfg.Range }

// TxModel returns the medium's transmission energy model.
func (m *Medium) TxModel() energy.TxModel { return m.cfg.Tx }

// InRange reports whether two registered nodes are currently within
// communication range of each other.
func (m *Medium) InRange(a, b NodeID) bool {
	ea, eb := m.endpoint(a), m.endpoint(b)
	if ea == nil || eb == nil {
		return false
	}
	return ea.Position().Dist(eb.Position()) <= m.cfg.Range
}

// Unicast transmits bits from one node to another with power control: the
// sender spends exactly E_T(d, bits) for the current distance d. The
// message is delivered through the scheduler after the serialization
// delay. Errors: ErrUnknownNode, ErrOutOfRange, energy.ErrDepleted (the
// sender died mid-transmission; nothing is delivered).
func (m *Medium) Unicast(from, to NodeID, bits float64, cat energy.Category, msg any) error {
	sender := m.endpoint(from)
	if sender == nil {
		return fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	receiver := m.endpoint(to)
	if receiver == nil {
		return fmt.Errorf("%w: receiver %d", ErrUnknownNode, to)
	}
	d := sender.Position().Dist(receiver.Position())
	if d > m.cfg.Range {
		m.stats.RangeDrops++
		return fmt.Errorf("%w: %d -> %d at %.1f m (range %.1f m)", ErrOutOfRange, from, to, d, m.cfg.Range)
	}
	m.stats.Unicasts++
	if err := m.charge(sender, m.cfg.Tx.TxEnergy(d, bits), cat); err != nil {
		m.stats.DeadDrops++
		return fmt.Errorf("radio: unicast %d -> %d: %w", from, to, err)
	}
	if m.cfg.Faults != nil && m.cfg.Faults.Drop(from, to, d, m.cfg.Range) {
		// The loss is silent: the sender paid for the transmission and
		// gets no error — reliability, if wanted, lives in the transport
		// above (netsim's retry/ack layer).
		m.stats.FaultDrops++
		return nil
	}
	m.deliver(from, receiver, bits, cat, msg)
	return nil
}

// Broadcast transmits bits from one node to every node currently in range,
// spending the energy of a full-range transmission once. It returns the
// number of receivers, or an error if the sender is unknown or died
// mid-transmission.
func (m *Medium) Broadcast(from NodeID, bits float64, cat energy.Category, msg any) (int, error) {
	return m.fanOut(from, bits, cat, msg, nil)
}

// AppendBroadcast is Broadcast without the handoff: it charges the
// sender, resolves the receivers in ascending ID order, consults the
// fault hook for each, and counts the broadcast and its deliveries exactly
// as Broadcast does, but instead of calling Receive it appends the IDs of
// the receivers the message reached to dst and returns the extended
// slice. The caller hands the message over itself. Deliveries are taken
// as immediate — the zero-bandwidth path — whatever Config.Bandwidth is,
// and receive-side energy is charged before the ID is appended; a
// receiver that dies paying it is counted as a dead drop and left out.
func (m *Medium) AppendBroadcast(dst []NodeID, from NodeID, bits float64, cat energy.Category) ([]NodeID, error) {
	_, err := m.fanOut(from, bits, cat, nil, &dst)
	return dst, err
}

// AppendBroadcastTo is AppendBroadcast with the receivers resolved by the
// caller: ids must be the set the installed locator would report for
// from's broadcast at this moment (ascending, the sender may be listed).
// Everything after the lookup is AppendBroadcast's — the sender charge,
// the fault hook consulted per receiver in ids order, the receive charge
// and every counter — so receiver sets can be resolved ahead of time,
// concurrently, and accounted for here serially in send order.
func (m *Medium) AppendBroadcastTo(dst []NodeID, from NodeID, ids []NodeID, bits float64, cat energy.Category) ([]NodeID, error) {
	sender, err := m.keyUp(from, bits, cat)
	if err != nil {
		return dst, err
	}
	m.reachAll(from, sender.Position(), ids, bits, cat, nil, &dst)
	return dst, nil
}

// fanOut is the broadcast behind Broadcast and AppendBroadcast. Every
// receiver in range (ascending ID, the sender skipped) passes the fault
// hook in that order; a survivor is then either handed msg through
// deliver (out nil) or appended to *out after its receive-side charge.
// It returns the number of receivers that survived the fault hook.
func (m *Medium) fanOut(from NodeID, bits float64, cat energy.Category, msg any, out *[]NodeID) (int, error) {
	sender, err := m.keyUp(from, bits, cat)
	if err != nil {
		return 0, err
	}
	origin := sender.Position()
	if m.locator != nil {
		// O(k) receiver lookup via the spatial index; ascending-ID order
		// is part of the Locator contract. Detach the scratch buffer while
		// iterating so a reentrant broadcast cannot clobber it.
		ids := m.scratch[:0]
		m.scratch = nil
		if m.senderLoc != nil {
			ids = m.senderLoc.AppendReceivers(ids, from, origin, m.cfg.Range)
		} else {
			ids = m.locator.AppendInRange(ids, origin, m.cfg.Range)
		}
		n := m.reachAll(from, origin, ids, bits, cat, msg, out)
		m.scratch = ids
		return n, nil
	}
	// Reference path: deterministic receiver order, ascending ID.
	n := 0
	for id, ep := range m.endpoints {
		if id == from || ep == nil || origin.Dist2(ep.Position()) > m.cfg.Range*m.cfg.Range {
			continue
		}
		if m.reach(from, id, ep, origin, bits, cat, msg, out) {
			n++
		}
	}
	return n, nil
}

// keyUp starts a broadcast from node from: it counts the broadcast and
// charges the sender one full-range transmission, returning the sender's
// endpoint, or an error if the sender is unknown or died paying.
func (m *Medium) keyUp(from NodeID, bits float64, cat energy.Category) (Endpoint, error) {
	sender := m.endpoint(from)
	if sender == nil {
		return nil, fmt.Errorf("%w: sender %d", ErrUnknownNode, from)
	}
	m.stats.Broadcasts++
	if err := m.charge(sender, m.cfg.Tx.TxEnergy(m.cfg.Range, bits), cat); err != nil {
		m.stats.DeadDrops++
		return nil, fmt.Errorf("radio: broadcast from %d: %w", from, err)
	}
	return sender, nil
}

// reachAll walks a located receiver list — ascending IDs, the sender
// skipped, unregistered IDs ignored — through reach, and returns how many
// receivers survived the fault hook.
func (m *Medium) reachAll(from NodeID, origin geom.Point, ids []NodeID, bits float64, cat energy.Category, msg any, out *[]NodeID) int {
	n := 0
	for _, id := range ids {
		if id == from {
			continue
		}
		if ep := m.endpoint(id); ep != nil && m.reach(from, id, ep, origin, bits, cat, msg, out) {
			n++
		}
	}
	return n
}

// reach completes one broadcast delivery to an in-range receiver: the
// fault hook may lose it, otherwise msg is delivered (out nil) or the
// receiver's ID appended to *out. It reports whether the fault hook let
// the delivery through.
func (m *Medium) reach(from, id NodeID, ep Endpoint, origin geom.Point, bits float64, cat energy.Category, msg any, out *[]NodeID) bool {
	if m.cfg.Faults != nil && m.cfg.Faults.Drop(from, id, origin.Dist(ep.Position()), m.cfg.Range) {
		m.stats.FaultDrops++
		return false
	}
	if out == nil {
		m.deliver(from, ep, bits, cat, msg)
		return true
	}
	if !m.chargeRx(ep, bits, cat) {
		m.stats.DeadDrops++
		return true
	}
	m.stats.Delivered++
	*out = append(*out, id)
	return true
}

func (m *Medium) charge(sender Endpoint, joules float64, cat energy.Category) error {
	if cat == energy.CatControl && !m.cfg.ChargeControl {
		return nil
	}
	if err := sender.Battery().Draw(joules, cat); err != nil {
		return err
	}
	return nil
}

// delivery is one in-flight message of the positive-bandwidth path,
// recycled through the medium's pool so serialization delay costs no
// allocation per hop.
type delivery struct {
	m    *Medium
	from NodeID
	to   Endpoint
	bits float64
	cat  energy.Category
	msg  any
}

// deliverFn is the shared scheduler callback for deferred deliveries.
var deliverFn sim.Func = func(arg any) {
	d := arg.(*delivery)
	m, from, to, bits, cat, msg := d.m, d.from, d.to, d.bits, d.cat, d.msg
	*d = delivery{}
	m.pool = append(m.pool, d)
	m.handoff(from, to, bits, cat, msg)
}

func (m *Medium) deliver(from NodeID, to Endpoint, bits float64, cat energy.Category, msg any) {
	if m.cfg.Bandwidth <= 0 {
		// Zero serialization delay: deliver synchronously. This keeps
		// dense control traffic (HELLO floods) off the event queue.
		m.handoff(from, to, bits, cat, msg)
		return
	}
	var d *delivery
	if n := len(m.pool); n > 0 {
		d = m.pool[n-1]
		m.pool = m.pool[:n-1]
	} else {
		d = new(delivery)
	}
	*d = delivery{m: m, from: from, to: to, bits: bits, cat: cat, msg: msg}
	delay := sim.Time(bits / m.cfg.Bandwidth)
	// Scheduling only fails for invalid times, which cannot arise from a
	// validated bandwidth; treat failure as a programming error.
	if _, err := m.sched.AfterArg(delay, deliverFn, d); err != nil {
		panic(fmt.Sprintf("radio: scheduling delivery: %v", err))
	}
}

// handoff completes one delivery at the receiver.
func (m *Medium) handoff(from NodeID, to Endpoint, bits float64, cat energy.Category, msg any) {
	if !m.chargeRx(to, bits, cat) {
		m.stats.DeadDrops++
		return
	}
	m.stats.Delivered++
	to.Receive(from, msg)
}

// chargeRx draws receiver electronics energy; it reports whether the
// receiver survived to take the message.
func (m *Medium) chargeRx(to Endpoint, bits float64, cat energy.Category) bool {
	if m.cfg.RxPerBit <= 0 {
		return true
	}
	if cat == energy.CatControl && !m.cfg.ChargeControl {
		return true
	}
	return to.Battery().Draw(m.cfg.RxPerBit*bits, energy.CatRx) == nil
}
