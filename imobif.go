package imobif

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// StrategyConfig selects the mobility strategy a flow runs: a registered
// strategy name plus optional per-strategy tuning parameters. Strategies
// are plug-ins — any name published through the mobility registry
// resolves here, and Strategies lists what is available. Unknown names
// and unknown or out-of-range parameters are configuration errors that
// name the accepted set.
type StrategyConfig struct {
	// Name is the registered strategy name (see Strategies).
	Name string
	// Params are the strategy's tuning knobs; nil or empty means all
	// defaults. Each strategy documents (and validates) its own names —
	// e.g. "horizon" for rolling-horizon, "tiers" for cluster-rotation.
	Params map[string]float64
}

// Strategy selects a registered strategy by name with default
// parameters. (In earlier releases Strategy was a string type; this
// constructor keeps the conversion spelling Strategy("min-energy")
// working unchanged.)
func Strategy(name string) StrategyConfig { return StrategyConfig{Name: name} }

// The built-in strategies: the paper's two (§3) plus the exact-solve
// lifetime variant, the stationary null strategy, and the competitor
// baselines shipped with the registry. Third-party strategies are
// selected with Strategy(name) or a StrategyConfig literal.
var (
	// StrategyMinEnergy minimizes total transmission energy: relays
	// converge to evenly spaced positions on the source–destination line
	// (paper §3.1, after Goldenberg et al.).
	StrategyMinEnergy = Strategy("min-energy")
	// StrategyMaxLifetime maximizes system lifetime: relay spacing is
	// proportional to residual energy via the α′ power-law approximation
	// (paper §3.2, Theorem 1).
	StrategyMaxLifetime = Strategy("max-lifetime")
	// StrategyMaxLifetimeExact solves the Theorem 1 split numerically on
	// the exact radio model instead of the α′ approximation.
	StrategyMaxLifetimeExact = Strategy("max-lifetime-exact")
	// StrategyStationary never moves relays (the null strategy).
	StrategyStationary = Strategy("stationary")
	// StrategyMaxLifetimeRouting is the no-movement max-lifetime
	// flow-routing baseline (after Lipiński): relays stay put and flows
	// are routed around energy-poor nodes instead. Params: "exponent".
	StrategyMaxLifetimeRouting = Strategy("max-lifetime-routing")
	// StrategyRollingHorizon repositions relays by a discounted lookahead
	// cost-to-go (after Jaleel & Shamma). Params: "horizon", "discount",
	// "samples".
	StrategyRollingHorizon = Strategy("rolling-horizon")
	// StrategyClusterRotation rotates the repositioning role LEACH-style
	// among energy tiers. Params: "tiers".
	StrategyClusterRotation = Strategy("cluster-rotation")
)

// Strategies returns every registered strategy name in sorted order.
func Strategies() []string { return mobility.Names() }

// Mode selects the mobility control approach (the three compared in the
// paper's evaluation).
type Mode string

// Control modes.
const (
	// ModeNoMobility never moves nodes (the paper's baseline).
	ModeNoMobility Mode = "no-mobility"
	// ModeCostUnaware always moves nodes, ignoring cost (the paper's
	// second comparator).
	ModeCostUnaware Mode = "cost-unaware"
	// ModeInformed is iMobif: movement is enabled and disabled by the
	// destination's online cost-benefit comparison.
	ModeInformed Mode = "informed"
)

// Config parameterizes a simulation. DefaultConfig returns the paper's
// reconstructed evaluation setup; all units are SI (meters, joules,
// seconds) except where the field name says otherwise.
type Config struct {
	// Nodes is the network size; FieldWidth/FieldHeight the deployment
	// area in meters.
	Nodes       int
	FieldWidth  float64
	FieldHeight float64
	// Range is the radio communication range in meters.
	Range float64
	// TxA (J/bit), TxB (J·m^−PathLossExp/bit) and PathLossExp define the
	// transmission power model P(d) = TxA + TxB·d^PathLossExp.
	TxA, TxB    float64
	PathLossExp float64
	// MobilityCost is k in the locomotion model E_M(d) = k·d, J/m.
	MobilityCost float64
	// MaxStepMeters caps movement per received data packet.
	MaxStepMeters float64
	// PacketBytes is the data packet payload size.
	PacketBytes int
	// FlowRateBytesPerSec paces packet emission.
	FlowRateBytesPerSec float64
	// Strategy and Mode select the mobility strategy and control
	// approach. Strategy names any registered plug-in (see Strategies);
	// the legacy spelling Strategy("min-energy") still works.
	Strategy StrategyConfig
	Mode     Mode
	// ChargeControl charges HELLO/notification traffic to node
	// batteries (the paper treats control traffic as free).
	ChargeControl bool
	// EstimateScale scales the source's advertised residual flow length
	// (1 = perfect estimate).
	EstimateScale float64
	// StopOnFirstDeath ends the run when any node depletes its battery.
	StopOnFirstDeath bool
	// NeighborIndex selects how the world finds in-range neighbors:
	// "grid" (the default when empty) sweeps radio-range-sized cells and
	// makes large Nodes counts tractable; "brute" tests all O(n²) pairs
	// and is kept for differential testing. Both produce bit-identical
	// results.
	NeighborIndex string
	// Faults optionally enables the fault-injection layer: seeded per-link
	// packet loss, scheduled node crash/recovery, the hop-by-hop retry/ack
	// transport, and route repair around dead relays. Nil keeps the ideal
	// channel, bit-identical to a build without the fault layer.
	Faults *FaultConfig
	// Motion optionally enables the ambient-mobility layer: every node
	// drifts under the configured model (random waypoint, Gauss-Markov,
	// or reference-point group mobility), independent of the iMobif
	// strategy's informed relay movement. Nil (or a stationary model)
	// arms no movement events, bit-identical to a build without the
	// layer.
	Motion *MotionConfig
}

// DefaultConfig returns the paper's reconstructed evaluation parameters
// (see DESIGN.md §1): 100 nodes on 1000×1000 m, 200 m range,
// a=1e−7 b=1e−10 α=2 radio, k=0.5 J/m, 1 KB packets at 1 KB/s, 1 m max
// step per packet, informed mode with the min-energy strategy.
func DefaultConfig() Config {
	return Config{
		Nodes:               100,
		FieldWidth:          1000,
		FieldHeight:         1000,
		Range:               200,
		TxA:                 1e-7,
		TxB:                 1e-10,
		PathLossExp:         2,
		MobilityCost:        0.5,
		MaxStepMeters:       1,
		PacketBytes:         1024,
		FlowRateBytesPerSec: 1024,
		Strategy:            StrategyMinEnergy,
		Mode:                ModeInformed,
		EstimateScale:       1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if _, err := c.strategy(); err != nil {
		return err
	}
	if _, err := c.mode(); err != nil {
		return err
	}
	cfg, err := c.netsim()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

func (c Config) txModel() energy.TxModel {
	return energy.TxModel{A: c.TxA, B: c.TxB, Alpha: c.PathLossExp}
}

func (c Config) strategy() (mobility.Strategy, error) {
	table, err := energy.NewPowerTable(c.txModel(), c.Range, 256)
	if err != nil {
		return nil, fmt.Errorf("imobif: building power table: %w", err)
	}
	env := mobility.Env{
		Tx:       c.txModel(),
		Range:    c.Range,
		Table:    table,
		Mobility: energy.MobilityModel{K: c.MobilityCost},
	}
	s, err := mobility.New(c.Strategy.Name, env, mobility.Params(c.Strategy.Params))
	if err != nil {
		return nil, fmt.Errorf("imobif: %w", err)
	}
	return s, nil
}

func (c Config) mode() (netsim.Mode, error) {
	switch c.Mode {
	case ModeNoMobility:
		return netsim.ModeNoMobility, nil
	case ModeCostUnaware:
		return netsim.ModeCostUnaware, nil
	case ModeInformed:
		return netsim.ModeInformed, nil
	default:
		return 0, fmt.Errorf("imobif: unknown mode %q", c.Mode)
	}
}

func (c Config) netsim() (netsim.Config, error) {
	strat, err := c.strategy()
	if err != nil {
		return netsim.Config{}, err
	}
	mode, err := c.mode()
	if err != nil {
		return netsim.Config{}, err
	}
	cfg := netsim.DefaultConfig()
	cfg.Radio = radio.Config{Tx: c.txModel(), Range: c.Range, ChargeControl: c.ChargeControl}
	cfg.Mobility = energy.MobilityModel{K: c.MobilityCost}
	cfg.Strategy = strat
	cfg.Mode = mode
	cfg.MaxStep = c.MaxStepMeters
	cfg.PacketBits = float64(c.PacketBytes) * 8
	cfg.FlowRateBps = c.FlowRateBytesPerSec * 8
	cfg.EstimateScale = c.EstimateScale
	cfg.StopOnFirstDeath = c.StopOnFirstDeath
	cfg.NeighborIndex = spatial.Kind(c.NeighborIndex)
	cfg.Faults = c.Faults.fault()
	cfg.Motion = c.Motion.motion(c.FieldWidth, c.FieldHeight)
	return cfg, nil
}

// Node is one node's observable state.
type Node struct {
	ID int
	// X, Y is the position in meters.
	X, Y float64
	// Joules is the (initial or residual) battery level.
	Joules float64
}

// Network is an immutable network description: node positions and initial
// energies. Build one with NewRandomNetwork or NewNetwork and hand it to
// NewSimulation; the same Network can seed many simulations (each
// simulation copies the state).
type Network struct {
	positions []geom.Point
	energies  []float64
	radioRng  float64
}

// NewRandomNetwork places cfg.Nodes nodes uniformly at random in the
// configured field, with initial energies drawn uniformly from
// [5000, 10000] J (ample for energy experiments; set per-node energies
// with NewNetwork for lifetime studies).
func NewRandomNetwork(cfg Config, seed int64) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("imobif: need at least two nodes, got %d", cfg.Nodes)
	}
	src := stats.NewSource(seed)
	positions := topo.PlaceUniform(src, cfg.Nodes, cfg.FieldWidth, cfg.FieldHeight)
	energies := make([]float64, cfg.Nodes)
	for i := range energies {
		energies[i] = src.Uniform(5000, 10000)
	}
	return NewNetwork(positionsToNodes(positions, energies), cfg.Range)
}

func positionsToNodes(pos []geom.Point, energies []float64) []Node {
	nodes := make([]Node, len(pos))
	for i := range pos {
		nodes[i] = Node{ID: i, X: pos[i].X, Y: pos[i].Y, Joules: energies[i]}
	}
	return nodes
}

// NewNetwork builds a network from explicit node states. Node IDs are
// their indices. radioRange is used by PickFlowEndpoints and
// PlanGreedyRoute; pass the same value as the Config.Range of the
// simulations this network will seed, or routes planned here may not be
// realizable on the simulated medium.
func NewNetwork(nodes []Node, radioRange float64) (*Network, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("imobif: need at least two nodes, got %d", len(nodes))
	}
	if radioRange <= 0 {
		return nil, fmt.Errorf("imobif: non-positive radio range %v", radioRange)
	}
	n := &Network{radioRng: radioRange}
	for i, node := range nodes {
		if node.Joules < 0 {
			return nil, fmt.Errorf("imobif: node %d has negative energy", i)
		}
		n.positions = append(n.positions, geom.Pt(node.X, node.Y))
		n.energies = append(n.energies, node.Joules)
	}
	return n, nil
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.positions) }

// Nodes returns the node states.
func (n *Network) Nodes() []Node { return positionsToNodes(n.positions, n.energies) }

// PickFlowEndpoints returns a random source/destination pair that greedy
// geographic routing can connect with at least one relay in between,
// mirroring the paper's instance generation. It fails if no routable pair
// is found after many attempts (disconnected or too-sparse network).
func (n *Network) PickFlowEndpoints(seed int64) (src, dst int, err error) {
	g, err := topo.NewGraph(n.positions, n.radioRng)
	if err != nil {
		return 0, 0, err
	}
	rng := stats.NewSource(seed)
	for attempt := 0; attempt < 1000; attempt++ {
		a := rng.Intn(len(n.positions))
		b := rng.Intn(len(n.positions))
		if a == b {
			continue
		}
		path, err := g.GreedyPath(a, b)
		if err != nil || len(path) < 3 {
			continue
		}
		return a, b, nil
	}
	return 0, 0, errors.New("imobif: no routable flow endpoints found")
}

// FlowID identifies a flow within a simulation.
type FlowID uint64

// FlowResult is one flow's outcome.
type FlowResult struct {
	// Completed reports whether every flow byte reached the destination.
	Completed bool
	// DeliveredBytes counts payload delivered end-to-end.
	DeliveredBytes float64
	// Notifications counts destination→source mobility status-change
	// packets; StatusFlips counts the changes the source applied.
	Notifications int
	StatusFlips   int
	// DurationSeconds is the virtual time the flow was active.
	DurationSeconds float64
	// LifetimeSeconds is the system lifetime observed by this flow's
	// run: time of the first node death, or the run duration if no node
	// died.
	LifetimeSeconds float64
	// PathNodes is the number of nodes on the flow path.
	PathNodes int
	// PacketsEmitted and PacketsDropped count the flow's data packets put
	// on the air and those that never reached the destination. On the
	// ideal channel (Config.Faults nil) PacketsDropped is zero.
	PacketsEmitted int
	PacketsDropped int
	// DeliveryRatio is the delivered fraction of emitted packets (1 for
	// an idle flow).
	DeliveryRatio float64
}

// ChannelStats reports the radio medium's activity during a run.
type ChannelStats struct {
	// Unicasts and Broadcasts count transmissions; Delivered counts
	// per-receiver handoffs.
	Unicasts   uint64
	Broadcasts uint64
	Delivered  uint64
	// RangeDrops counts unicasts to out-of-range receivers; DeadDrops
	// counts transmissions lost to depleted senders or receivers;
	// FaultDrops counts losses injected by the fault layer.
	RangeDrops uint64
	DeadDrops  uint64
	FaultDrops uint64
}

// TransportStats reports the retry/ack transport's activity during a run.
// All counters are zero when the fault layer or its retry transport is
// disabled.
type TransportStats struct {
	// Retransmits counts hop-level data retransmissions; Acks counts acks
	// accepted; DupAcks and DupData count suppressed duplicates.
	Retransmits uint64
	Acks        uint64
	DupAcks     uint64
	DupData     uint64
	// LinkBreaks counts retry-limit exhaustions; RouteRepairs counts
	// successful path re-plans around dead or unreachable relays.
	LinkBreaks   uint64
	RouteRepairs uint64
}

// Result summarizes a simulation run.
type Result struct {
	// Flows holds per-flow outcomes in AddFlow order.
	Flows []FlowResult
	// TxJoules, MoveJoules, ControlJoules decompose network-wide energy
	// consumption.
	TxJoules      float64
	MoveJoules    float64
	ControlJoules float64
	// FirstDeathSeconds is the virtual time of the first node death, or
	// a negative value if no node died.
	FirstDeathSeconds float64
	// DurationSeconds is the virtual time at which the run ended.
	DurationSeconds float64
	// Before and After are node states at the start and end of the run
	// (the paper's Figure 5 views).
	Before, After []Node
	// Channel reports radio medium counters; Transport reports the
	// retry/ack transport's counters (all zero on the ideal channel).
	Channel   ChannelStats
	Transport TransportStats
	// ChannelLossRate is the fault injector's observed loss fraction
	// (0 when fault injection is off).
	ChannelLossRate float64
	// Series holds time-resolved run metrics when the simulation was built
	// with WithTimeSeries; nil otherwise. Samples are in strictly
	// increasing time order: one at t=0, one per interval, and one at the
	// moment the run ended.
	Series []Sample
	// Canceled reports that RunContext stopped early because its context
	// was canceled. The rest of the Result is the deterministic partial
	// state at the point the run stopped.
	Canceled bool
}

// TotalJoules returns the total energy consumed network-wide.
func (r *Result) TotalJoules() float64 { return r.TxJoules + r.MoveJoules + r.ControlJoules }

// Simulation is a single runnable scenario. Create with NewSimulation, add
// flows, then call Run (or RunContext) once.
type Simulation struct {
	world *netsim.World
	flows []FlowID
	jsonl []*trace.JSONLWriter
}

// NewSimulation builds a simulation of the given network under the given
// configuration. The network state is copied; the Network can be reused.
// Options attach observability — WithObserver, WithTimeSeries,
// WithTraceWriter — and cost nothing when absent: the zero-option call is
// bit-identical to a build without the observability layer.
func NewSimulation(cfg Config, net *Network, opts ...Option) (*Simulation, error) {
	if net == nil {
		return nil, errors.New("imobif: nil network")
	}
	o, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	ncfg, err := cfg.netsim()
	if err != nil {
		return nil, err
	}
	ncfg.Sink = trace.Multi(o.sinks...)
	if o.sampleInterval > 0 {
		ncfg.SampleInterval = simTime(o.sampleInterval)
	}
	positions := append([]geom.Point(nil), net.positions...)
	energies := append([]float64(nil), net.energies...)
	world, err := netsim.NewWorld(ncfg, positions, energies)
	if err != nil {
		return nil, err
	}
	return &Simulation{world: world, jsonl: o.jsonl}, nil
}

// AddFlow registers a one-to-one flow of lengthBytes bytes. The route is
// planned with greedy geographic routing on the current topology
// (the paper's evaluation routing).
func (s *Simulation) AddFlow(src, dst int, lengthBytes float64) (FlowID, error) {
	id, err := s.world.AddFlow(netsim.FlowSpec{Src: src, Dst: dst, LengthBits: lengthBytes * 8})
	if err != nil {
		return 0, err
	}
	s.flows = append(s.flows, FlowID(id))
	return FlowID(id), nil
}

// AddFlowPath registers a flow along an explicit node path (src..dst
// inclusive); consecutive nodes must be within radio range.
func (s *Simulation) AddFlowPath(path []int, lengthBytes float64) (FlowID, error) {
	if len(path) < 2 {
		return 0, errors.New("imobif: path needs at least two nodes")
	}
	id, err := s.world.AddFlow(netsim.FlowSpec{
		Src: path[0], Dst: path[len(path)-1],
		LengthBits: lengthBytes * 8,
		Path:       append([]int(nil), path...),
	})
	if err != nil {
		return 0, err
	}
	s.flows = append(s.flows, FlowID(id))
	return FlowID(id), nil
}

// FlowPath returns the pinned node path of a flow.
func (s *Simulation) FlowPath(id FlowID) ([]int, error) {
	return s.world.FlowPath(core.FlowID(id))
}

// Run executes the simulation to completion and returns the result.
// Simulations are single-use. Run is RunContext with a background
// context.
func (s *Simulation) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the simulation to completion, or until ctx is
// canceled. Cancellation is checked between simulation events, never
// mid-event, so a canceled run still returns a well-formed, deterministic
// Result — the partial state at the moment the run stopped — with
// Canceled set and a nil error. Simulations are single-use.
func (s *Simulation) RunContext(ctx context.Context) (*Result, error) {
	res, err := s.world.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	for _, jw := range s.jsonl {
		if werr := jw.Err(); werr != nil {
			return nil, fmt.Errorf("imobif: trace export: %w", werr)
		}
	}
	out := &Result{
		TxJoules:          res.Energy.Tx,
		MoveJoules:        res.Energy.Move,
		ControlJoules:     res.Energy.Control,
		FirstDeathSeconds: float64(res.FirstDeath),
		DurationSeconds:   float64(res.Duration),
		Channel: ChannelStats{
			Unicasts:   res.Medium.Unicasts,
			Broadcasts: res.Medium.Broadcasts,
			Delivered:  res.Medium.Delivered,
			RangeDrops: res.Medium.RangeDrops,
			DeadDrops:  res.Medium.DeadDrops,
			FaultDrops: res.Medium.FaultDrops,
		},
		Transport: TransportStats{
			Retransmits:  res.Transport.Retransmits,
			Acks:         res.Transport.Acks,
			DupAcks:      res.Transport.DupAcks,
			DupData:      res.Transport.DupData,
			LinkBreaks:   res.Transport.LinkBreaks,
			RouteRepairs: res.Transport.RouteRepairs,
		},
		ChannelLossRate: res.Faults.LossRate(),
		Canceled:        res.Canceled,
	}
	if res.Series != nil {
		out.Series = make([]Sample, 0, len(res.Series.Samples))
		for _, smp := range res.Series.Samples {
			out.Series = append(out.Series, sampleFromInternal(smp))
		}
	}
	for _, n := range res.Initial.Nodes {
		out.Before = append(out.Before, Node{ID: n.ID, X: n.Pos.X, Y: n.Pos.Y, Joules: n.Residual})
	}
	for _, n := range res.Final.Nodes {
		out.After = append(out.After, Node{ID: n.ID, X: n.Pos.X, Y: n.Pos.Y, Joules: n.Residual})
	}
	for _, f := range res.Flows {
		out.Flows = append(out.Flows, FlowResult{
			Completed:       f.Completed,
			DeliveredBytes:  f.DeliveredBits / 8,
			Notifications:   f.Notifications,
			StatusFlips:     f.StatusFlips,
			DurationSeconds: float64(f.Duration),
			LifetimeSeconds: float64(f.Lifetime()),
			PathNodes:       f.PathLen,
			PacketsEmitted:  f.PacketsEmitted,
			PacketsDropped:  f.PacketsDropped,
			DeliveryRatio:   f.DeliveryRatio(),
		})
	}
	return out, nil
}

// PlanGreedyRoute plans the greedy geographic route between two nodes of a
// network, exposed for tooling and examples.
func (n *Network) PlanGreedyRoute(src, dst int) ([]int, error) {
	g, err := topo.NewGraph(n.positions, n.radioRng)
	if err != nil {
		return nil, err
	}
	return (routing.GreedyPlanner{}).PlanRoute(g, src, dst)
}

// simTime converts seconds to the simulator's time type.
func simTime(seconds float64) sim.Time { return sim.Time(seconds) }
