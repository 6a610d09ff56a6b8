// Package netsim assembles the substrates into a runnable wireless ad hoc
// network simulation: nodes with batteries and positions on a shared radio
// medium, HELLO-maintained neighbor tables, pinned flow paths, rate-paced
// data packets whose headers carry the iMobif aggregates, packet-triggered
// controlled mobility, destination feedback notifications, and first-death
// lifetime detection.
//
// A World runs one scenario: build it from a Config plus node placement,
// add flows, call Run, read the Result. Worlds are single-use. The package
// is split by role: config.go (Config and modes), world.go (the World,
// flows, and run loop), node.go (per-node protocol behaviour), and
// discovery.go (AODV route discovery over the medium).
package netsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/trace"
)

// NodeID identifies a node.
type NodeID = int

// Mode selects the mobility control approach under evaluation (paper §4
// compares three).
type Mode int

// Evaluation modes.
const (
	// ModeNoMobility is the baseline: nodes never move.
	ModeNoMobility Mode = iota + 1
	// ModeCostUnaware moves nodes unconditionally: the strategy is always
	// enabled and destination feedback is ignored.
	ModeCostUnaware
	// ModeInformed is iMobif: the destination's cost-benefit comparison
	// enables and disables mobility via notifications.
	ModeInformed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNoMobility:
		return "no-mobility"
	case ModeCostUnaware:
		return "cost-unaware"
	case ModeInformed:
		return "informed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of String: it maps a mode name to its Mode.
func ParseMode(name string) (Mode, error) {
	for m := ModeNoMobility; m <= ModeInformed; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("netsim: unknown mode %q (want no-mobility, cost-unaware or informed)", name)
}

// Config parameterizes a World. DefaultConfig returns the reconstructed
// paper values.
type Config struct {
	// Radio configures the shared medium.
	Radio radio.Config
	// Mobility is the locomotion cost model E_M(d) = K·d.
	Mobility energy.MobilityModel
	// Strategy is the mobility strategy flows run.
	Strategy mobility.Strategy
	// Mode selects no-mobility / cost-unaware / informed control.
	Mode Mode
	// StartEnabled is the initial mobility status for ModeInformed (the
	// paper's experiments start disabled).
	StartEnabled bool
	// MaxStep caps movement per received data packet, in meters.
	MaxStep float64
	// PacketBits is the data packet payload size.
	PacketBits float64
	// FlowRateBps paces packet emission (paper: 1 KBps = 8 Kbps).
	FlowRateBps float64
	// HelloInterval is the beacon period in seconds; zero disables
	// beaconing (neighbor tables are then seeded once and never refresh).
	HelloInterval sim.Time
	// HelloBits is the beacon size for the control-cost ablation.
	HelloBits float64
	// NotificationBits is the feedback packet size for the control-cost
	// ablation.
	NotificationBits float64
	// NeighborTTL expires stale neighbor entries; zero disables expiry.
	NeighborTTL sim.Time
	// BeaconMoveEps and BeaconEnergyFrac implement triggered updates: a
	// node re-beacons only when it has moved at least BeaconMoveEps
	// meters or its residual energy has drifted by more than
	// BeaconEnergyFrac (relative) since its last advertisement. Nodes
	// with accurate advertised state stay silent, which keeps the HELLO
	// load proportional to network activity. Zero values re-beacon every
	// interval unconditionally.
	BeaconMoveEps    float64
	BeaconEnergyFrac float64
	// EstimateScale scales the source's advertised residual flow length,
	// modeling inaccurate estimates (1 = perfect).
	EstimateScale float64
	// Planner plans flow paths on the initial topology (default greedy,
	// as in the paper's evaluation).
	Planner routing.Planner
	// NeighborIndex selects how the world builds the neighbor rows that
	// answer every in-range question (seeding, broadcast receivers, AODV
	// floods, Graph): spatial.KindGrid (the default when empty) sweeps
	// radio-range-sized cells; spatial.KindBrute tests all O(n²) pairs, the
	// oracle of the differential tests. Both produce bit-identical runs.
	NeighborIndex spatial.Kind
	// Faults, when non-nil, enables the fault-injection layer: seeded
	// per-link packet loss on the radio medium, scheduled node
	// crash/recovery events, the hop-by-hop retry/ack transport, and
	// (optionally) route repair around dead relays. Nil keeps the ideal
	// channel and is guaranteed bit-identical to the pre-fault simulator
	// (golden tests enforce it). Radio.Faults must be left nil; the world
	// installs its own injector.
	Faults *fault.Config
	// Motion, when non-nil and naming a non-stationary model, enables the
	// ambient-mobility layer: every node drifts under the configured
	// motion.Model, stepped in ID order by one recurring tick every
	// Motion.Interval simulated seconds. Nil (or stationary) arms no
	// events and is guaranteed bit-identical to the pre-motion simulator
	// (golden tests enforce it). Ambient movement is distinct from — and
	// composes with — the iMobif Strategy: the strategy decides where
	// relays *should* go; ambient motion is where the environment carries
	// everyone regardless.
	Motion *motion.Config
	// StopOnFirstDeath ends the run when any node depletes its battery
	// (lifetime experiments).
	StopOnFirstDeath bool
	// Horizon is the hard wall-clock stop in virtual seconds.
	Horizon sim.Time
	// Sink, when non-nil, receives every trace event as the simulation
	// produces it, in simulated-time order — the feed behind the public
	// Observer callbacks, the JSONL trace export and the ring-buffer
	// *trace.Tracer; trace.Multi fans one stream out to several. With Sink
	// nil the world skips event dispatch entirely, so the zero-observer
	// run is bit-identical to (and as fast as) a build without
	// observability.
	Sink trace.Sink
	// SampleInterval, when positive, samples time-resolved run metrics —
	// cumulative per-category energy, residual-energy min/mean, alive
	// node count, delivery/retry counters — every SampleInterval
	// simulated seconds into Result.Series, plus one sample at t=0 and
	// one when the run ends. Zero disables sampling.
	SampleInterval sim.Time
}

// DefaultConfig returns the paper-reconstructed parameters (DESIGN.md §1):
// 200 m range, a=1e-7 b=1e-10 α=2 radio, k=0.5 J/m mobility, 1 KB packets
// at 1 KBps, 1 m max step per packet, informed mode starting disabled.
func DefaultConfig() Config {
	return Config{
		Radio: radio.Config{
			Tx:    energy.DefaultTxModel(),
			Range: 200,
		},
		Mobility:         energy.MobilityModel{K: 0.5},
		Strategy:         mobility.MinEnergy{},
		Mode:             ModeInformed,
		StartEnabled:     false,
		MaxStep:          1,
		PacketBits:       8192,
		FlowRateBps:      8000,
		HelloInterval:    1,
		HelloBits:        256,
		NotificationBits: 256,
		NeighborTTL:      0,
		BeaconMoveEps:    1,
		BeaconEnergyFrac: 0.01,
		EstimateScale:    1,
		Planner:          routing.GreedyPlanner{},
		Horizon:          1e7,
	}
}

// WithStrategy resolves the registered strategy name with params against
// the config's own models (the registry Env: Radio.Tx, Radio.Range, a
// 256-entry power table over the range, Mobility) and returns the config
// running it, validated. Together with ParseMode it is the one path by
// which a surface's model fields (imobif.Config, the scenario document,
// experiments.Params) become a runnable config.
func (c Config) WithStrategy(name string, params mobility.Params) (Config, error) {
	table, err := energy.NewPowerTable(c.Radio.Tx, c.Radio.Range, 256)
	if err != nil {
		return Config{}, err
	}
	c.Strategy, err = mobility.New(name, mobility.Env{
		Tx: c.Radio.Tx, Range: c.Radio.Range, Table: table, Mobility: c.Mobility,
	}, params)
	if err != nil {
		return Config{}, err
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Radio.Validate(); err != nil {
		return err
	}
	if err := c.Mobility.Validate(); err != nil {
		return err
	}
	if c.Strategy == nil {
		return errors.New("netsim: nil strategy")
	}
	switch c.Mode {
	case ModeNoMobility, ModeCostUnaware, ModeInformed:
	default:
		return fmt.Errorf("netsim: invalid mode %d", c.Mode)
	}
	// The comparisons are written so that NaN fails them.
	if !(c.MaxStep >= 0 && c.MaxStep <= math.MaxFloat64) {
		return fmt.Errorf("netsim: max step %v is not finite and non-negative", c.MaxStep)
	}
	if !(c.PacketBits > 0 && c.PacketBits <= math.MaxFloat64) {
		return fmt.Errorf("netsim: packet size %v is not finite and positive", c.PacketBits)
	}
	if !(c.FlowRateBps > 0 && c.FlowRateBps <= math.MaxFloat64) {
		return fmt.Errorf("netsim: flow rate %v is not finite and positive", c.FlowRateBps)
	}
	if !(c.EstimateScale > 0 && c.EstimateScale <= math.MaxFloat64) {
		return fmt.Errorf("netsim: estimate scale %v is not finite and positive", c.EstimateScale)
	}
	if c.Planner == nil {
		return errors.New("netsim: nil planner")
	}
	if err := c.NeighborIndex.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Motion.Validate(); err != nil {
		return err
	}
	if c.Radio.Faults != nil {
		return errors.New("netsim: set Config.Faults, not Radio.Faults (the world installs its own injector)")
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("netsim: non-positive horizon %v", c.Horizon)
	}
	if c.SampleInterval < 0 {
		return fmt.Errorf("netsim: negative sample interval %v", c.SampleInterval)
	}
	if !(c.SampleInterval <= math.MaxFloat64) {
		return fmt.Errorf("netsim: sample interval %v is not finite", c.SampleInterval)
	}
	return nil
}

// dataPacket is the on-air data message: the iMobif header plus the pinned
// path it travels (installed in flow tables at setup; carried here only so
// relays can be lazily allocated after restarts).
