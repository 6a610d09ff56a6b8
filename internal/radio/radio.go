// Package radio implements the wireless channel substrate: an ideal
// unit-disk medium with power-controlled unicast and broadcast, per-bit
// transmission energy accounting against node batteries. Delivery is
// synchronous: the paper's simulator ignores transmission delay, so a
// message is handed to its receiver before the send returns.
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
	"math"

	"repro/internal/energy"
	"repro/internal/geom"
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
	// Receive delivers a message. It runs synchronously inside the send
	// that carried it.
	Receive(from NodeID, msg any)
}

// Config parameterizes a Medium.
type Config struct {
	// Tx is the transmission energy model.
	Tx energy.TxModel
	// Range is the maximum communication distance in meters.
	Range float64
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
	// The comparisons are written so that NaN fails them.
	if !(c.Range > 0 && c.Range <= math.MaxFloat64) {
		return fmt.Errorf("radio: range %v is not finite and positive", c.Range)
	}
	if !(c.RxPerBit >= 0 && c.RxPerBit <= math.MaxFloat64) {
		return fmt.Errorf("radio: rx cost %v is not finite and non-negative", c.RxPerBit)
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
// node IDs lie within a radius of a sending node, in ascending ID order
// (the sender itself may be included; a broadcast skips it). Installing
// one via UseLocator lets Broadcast find its receivers in O(k) instead of
// scanning every registered endpoint.
type Locator interface {
	// AppendReceivers appends the IDs of all nodes within r of node from,
	// currently at p, to dst, ascending, and returns the extended slice.
	AppendReceivers(dst []int, from NodeID, p geom.Point, r float64) []int
}

// Medium is the shared wireless channel. It is single-threaded: every
// send completes, deliveries included, before it returns.
type Medium struct {
	cfg Config
	// endpoints is indexed directly by NodeID (nil = unregistered): node
	// IDs are small and dense in every caller (netsim numbers nodes
	// 0..n-1), and slice indexing keeps the two per-unicast lookups off
	// the map hash path. Iterating it ascending is the deterministic
	// broadcast order.
	endpoints []Endpoint
	// locator, when installed, serves broadcast receiver lookups; nil
	// falls back to the linear scan over endpoints.
	locator Locator
	// scratch is the reusable receiver-ID buffer for locator broadcasts.
	scratch []NodeID
	stats   Stats
}

// maxNodeID bounds endpoint IDs so a mistyped huge ID cannot allocate an
// absurd endpoint table (the slice grows to the largest registered ID).
const maxNodeID = 1 << 24

// NewMedium creates a medium.
func NewMedium(cfg Config) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Medium{cfg: cfg}, nil
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
// neighbor rows). A nil loc reverts to the built-in scan over all
// registered endpoints.
func (m *Medium) UseLocator(loc Locator) {
	m.locator = loc
}

// Stats returns a copy of the activity counters.
func (m *Medium) Stats() Stats { return m.stats }

// Unicast transmits bits from one node to another with power control: the
// sender spends exactly E_T(d, bits) for the current distance d, and the
// message is delivered before Unicast returns. Errors: ErrUnknownNode,
// ErrOutOfRange, energy.ErrDepleted (the sender died mid-transmission;
// nothing is delivered).
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
	m.handoff(from, receiver, bits, cat, msg)
	return nil
}

// Broadcast transmits bits from one node to every node currently in range,
// spending the energy of a full-range transmission once. It returns the
// number of receivers, or an error if the sender is unknown or died
// mid-transmission.
func (m *Medium) Broadcast(from NodeID, bits float64, cat energy.Category, msg any) (int, error) {
	return m.fanOut(from, bits, cat, msg)
}

// AppendBroadcastTo is Broadcast without the lookup and the handoff. The
// caller resolves the receivers: ids must be the set the installed
// locator would report for from's broadcast at this moment (ascending,
// the sender may be listed), so every listed ID is a registered endpoint,
// as the Locator contract requires. Everything else is Broadcast's — the
// sender charge, the fault hook consulted per receiver in ids order, the
// receive charge and every counter — but instead of calling Receive it
// appends the IDs of the receivers the message reached to dst and returns
// the extended slice; the caller hands the message over itself. A
// receiver that dies paying its receive-side energy is counted as a dead
// drop and left out. Receiver sets can thus be resolved ahead of time,
// concurrently, and accounted for here serially in send order.
func (m *Medium) AppendBroadcastTo(dst []NodeID, from NodeID, ids []NodeID, bits float64, cat energy.Category) ([]NodeID, error) {
	sender, err := m.keyUp(from, bits, cat)
	if err != nil {
		return dst, err
	}
	m.reachAll(from, sender.Position(), ids, bits, cat, nil, &dst)
	return dst, nil
}

// fanOut is the broadcast behind Broadcast. Every receiver in range
// (ascending ID, the sender skipped) passes the fault hook in that order,
// and each survivor is handed msg. It returns the number of receivers
// that survived the fault hook.
func (m *Medium) fanOut(from NodeID, bits float64, cat energy.Category, msg any) (int, error) {
	sender, err := m.keyUp(from, bits, cat)
	if err != nil {
		return 0, err
	}
	origin := sender.Position()
	if m.locator != nil {
		// O(k) receiver lookup via the locator; ascending-ID order
		// is part of the Locator contract. Detach the scratch buffer while
		// iterating so a reentrant broadcast cannot clobber it.
		ids := m.locator.AppendReceivers(m.scratch[:0], from, origin, m.cfg.Range)
		m.scratch = nil
		n := m.reachAll(from, origin, ids, bits, cat, msg, nil)
		m.scratch = ids
		return n, nil
	}
	// Reference path: deterministic receiver order, ascending ID.
	n := 0
	for id, ep := range m.endpoints {
		if id == from || ep == nil || origin.Dist2(ep.Position()) > m.cfg.Range*m.cfg.Range {
			continue
		}
		if m.reach(from, id, ep, origin, bits, cat, msg, nil) {
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
// receivers survived the fault hook. A free broadcast appended to *out
// cannot lose, charge or kill a receiver, so it only copies the list and
// counts it without loading an endpoint, relying on the Locator contract
// that located IDs are registered.
func (m *Medium) reachAll(from NodeID, origin geom.Point, ids []NodeID, bits float64, cat energy.Category, msg any, out *[]NodeID) int {
	n := 0
	if out != nil && m.free(cat) {
		for _, id := range ids {
			if id != from {
				*out = append(*out, id)
				n++
			}
		}
		m.stats.Delivered += uint64(n)
		return n
	}
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
		m.handoff(from, ep, bits, cat, msg)
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

// uncharged reports whether traffic of category cat draws no energy, at
// the sender or at any receiver: control traffic on a medium that does
// not charge it.
func (m *Medium) uncharged(cat energy.Category) bool {
	return cat == energy.CatControl && !m.cfg.ChargeControl
}

// free reports whether a broadcast of category cat is free: it draws no
// energy and the medium has no fault hook, so every located receiver
// takes it.
func (m *Medium) free(cat energy.Category) bool {
	return m.cfg.Faults == nil && m.uncharged(cat)
}

func (m *Medium) charge(sender Endpoint, joules float64, cat energy.Category) error {
	if m.uncharged(cat) {
		return nil
	}
	if err := sender.Battery().Draw(joules, cat); err != nil {
		return err
	}
	return nil
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
	if m.cfg.RxPerBit <= 0 || m.uncharged(cat) {
		return true
	}
	return to.Battery().Draw(m.cfg.RxPerBit*bits, energy.CatRx) == nil
}
