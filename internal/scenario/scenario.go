// Package scenario loads simulation scenarios from JSON, so custom
// experiments can be described declaratively and run with imobif-sim
// without writing Go. A scenario bundles the physical configuration, the
// node deployment (explicit or random), the flows, and optional failure
// injections.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/netsim"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Scenario is the JSON document root.
type Scenario struct {
	// Name labels the scenario in output.
	Name string `json:"name"`
	// Seed drives random placement/energies when used.
	Seed int64 `json:"seed"`

	// Radio parameters. Zero values take the paper defaults.
	RangeMeters  float64 `json:"range_meters"`
	TxA          float64 `json:"tx_a"`
	TxB          float64 `json:"tx_b"`
	PathLossExp  float64 `json:"path_loss_exp"`
	MobilityCost float64 `json:"mobility_cost_j_per_m"`

	// Strategy selects any registered mobility strategy, in either the
	// legacy plain-string spelling ("strategy": "min-energy") or the
	// structured spelling with per-strategy parameters
	// ("strategy": {"name": "rolling-horizon", "params": {"horizon": 12}}).
	// Default "min-energy".
	Strategy StrategySpec `json:"strategy"`
	// Mode: "informed" (default), "no-mobility", "cost-unaware".
	Mode string `json:"mode"`

	MaxStepMeters    float64 `json:"max_step_meters"`
	PacketBytes      float64 `json:"packet_bytes"`
	RateBytesPerSec  float64 `json:"rate_bytes_per_sec"`
	ChargeControl    bool    `json:"charge_control"`
	EstimateScale    float64 `json:"estimate_scale"`
	StopOnFirstDeath bool    `json:"stop_on_first_death"`

	// Nodes lists explicit node states; alternatively RandomNodes places
	// nodes uniformly in the field.
	Nodes       []NodeSpec       `json:"nodes,omitempty"`
	RandomNodes *RandomNodesSpec `json:"random_nodes,omitempty"`
	Flows       []FlowSpec       `json:"flows"`
	Failures    []FailureSpec    `json:"failures,omitempty"`
	// Faults optionally enables the fault-injection layer (lossy channel,
	// crash/recovery schedule, retry/ack transport, route repair).
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Motion optionally enables the ambient-mobility layer (every node
	// drifts under a random-waypoint / Gauss-Markov / RPGM model,
	// independent of the iMobif strategy's informed relay movement).
	Motion *MotionSpec `json:"motion,omitempty"`

	// Trials asks service runs (imobif-served) to execute the scenario
	// this many times, trial i under a seed derived from Seed via
	// SplitMix64 (internal/sweep). 0 and 1 both mean a single run under
	// Seed itself. Build ignores it: it materializes one world.
	Trials int `json:"trials,omitempty"`
	// Output selects optional service-run outputs (JSONL event trace,
	// time-resolved metrics samples). Nil means result metrics only.
	Output *OutputSpec `json:"output,omitempty"`
}

// MaxTrials bounds Scenario.Trials, so a single service job cannot queue
// an unbounded amount of work.
const MaxTrials = 100000

// MaxNodes bounds a scenario's node count (the repository's scale
// target), so a small document cannot make Build allocate for an
// arbitrarily large world.
const MaxNodes = 100000

// MinSampleIntervalS is the shortest positive Output.SampleIntervalS a
// scenario may ask for: one sample per simulated second, the default
// HELLO period. A run samples at every interval until it ends, with no
// cap on the series, so a shorter interval would let one small document
// grow a job's result without bound.
const MinSampleIntervalS = 1.0

// OutputSpec selects optional run outputs for service jobs.
type OutputSpec struct {
	// Trace captures the run's event trace as JSONL (the pinned schema of
	// internal/trace). Only valid for single-trial jobs.
	Trace bool `json:"trace,omitempty"`
	// SampleIntervalS samples time-resolved metrics every this many
	// simulated seconds (plus once at t=0 and once at run end). Zero
	// turns sampling off; otherwise it is at least MinSampleIntervalS.
	SampleIntervalS float64 `json:"sample_interval_s,omitempty"`
}

// StrategySpec selects a registered mobility strategy plus optional
// per-strategy tuning parameters. Its JSON form is dual-spelled: a plain
// registered name (the legacy form) or an object {"name": ..., "params":
// {...}}. The two spellings canonicalize identically — a spec with no
// params marshals back to the plain string — so a legacy scenario's
// canonical fingerprint is unchanged by the structured form's existence
// (the spelling-invariance test pins this).
type StrategySpec struct {
	// Name is the registered strategy name (mobility.Names lists them).
	Name string `json:"name"`
	// Params are the strategy's tuning knobs; strategies reject names
	// they do not define.
	Params map[string]float64 `json:"params,omitempty"`
}

// String renders the spec for run headers and logs.
func (sp StrategySpec) String() string {
	if len(sp.Params) == 0 {
		return sp.Name
	}
	keys := make([]string, 0, len(sp.Params))
	for k := range sp.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := sp.Name + "{"
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", k, sp.Params[k])
	}
	return out + "}"
}

// MarshalJSON implements json.Marshaler: parameterless specs emit the
// legacy plain-string spelling, keeping canonical scenario bytes (and so
// fingerprints) identical to pre-structured-form releases.
func (sp StrategySpec) MarshalJSON() ([]byte, error) {
	if len(sp.Params) == 0 {
		return json.Marshal(sp.Name)
	}
	type raw StrategySpec
	return json.Marshal(raw(sp))
}

// UnmarshalJSON implements json.Unmarshaler, accepting both spellings.
// Unknown object keys are rejected (the top-level decoder's strictness
// does not reach through a custom unmarshaler).
func (sp *StrategySpec) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		*sp = StrategySpec{Name: name}
		return nil
	}
	type raw StrategySpec
	var r raw
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return fmt.Errorf("strategy: want a name string or {name, params} object: %w", err)
	}
	*sp = StrategySpec(r)
	return nil
}

// NodeSpec is one explicit node.
type NodeSpec struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Joules float64 `json:"joules"`
}

// RandomNodesSpec asks for uniform random placement.
type RandomNodesSpec struct {
	Count    int     `json:"count"`
	FieldW   float64 `json:"field_w"`
	FieldH   float64 `json:"field_h"`
	EnergyLo float64 `json:"energy_lo"`
	EnergyHi float64 `json:"energy_hi"`
}

// FlowSpec is one flow.
type FlowSpec struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	LengthKB float64 `json:"length_kb"`
	Path     []int   `json:"path,omitempty"`
	UseAODV  bool    `json:"use_aodv,omitempty"`
}

// FailureSpec crashes a node at a virtual time.
type FailureSpec struct {
	Node      int     `json:"node"`
	AtSeconds float64 `json:"at_seconds"`
}

// FaultsSpec configures the fault-injection layer (internal/fault).
type FaultsSpec struct {
	// LossP is the per-transmission loss probability in [0, 1).
	LossP float64 `json:"loss_p"`
	// DistanceScale scales loss with (distance/range)².
	DistanceScale bool `json:"distance_scale,omitempty"`
	// MeanBurst >= 1 switches to Gilbert-Elliott bursty loss with this
	// mean loss-burst length.
	MeanBurst float64 `json:"mean_burst,omitempty"`
	// Seed seeds the injector's private random stream (the scenario's
	// top-level seed is for placement, not loss).
	Seed int64 `json:"seed,omitempty"`
	// RetryLimit > 0 turns on the hop-by-hop retry/ack transport with
	// that many retransmissions per packet per hop.
	RetryLimit int `json:"retry_limit,omitempty"`
	// RetryTimeoutSec is the per-hop ack wait before a retransmission.
	RetryTimeoutSec float64 `json:"retry_timeout_s,omitempty"`
	// AckBytes sizes the hop-level ack (default 8 bytes).
	AckBytes float64 `json:"ack_bytes,omitempty"`
	// RouteRepair re-plans flow paths around dead or unreachable relays.
	RouteRepair bool `json:"route_repair,omitempty"`
	// Crashes schedules node outages with optional recovery.
	Crashes []CrashSpec `json:"crashes,omitempty"`
}

// MotionSpec configures the ambient-mobility layer (internal/motion).
type MotionSpec struct {
	// Model is "stationary" (default), "random-waypoint", "gauss-markov",
	// or "rpgm".
	Model string `json:"model"`
	// Seed seeds the model's private random streams (the scenario's
	// top-level seed is for placement, not motion).
	Seed int64 `json:"seed,omitempty"`
	// IntervalS is the movement-step period in simulated seconds
	// (default 1).
	IntervalS float64 `json:"interval_s,omitempty"`
	// SpeedLo and SpeedHi bound node speed draws in m/s (default
	// [0.5, 1.5]).
	SpeedLo float64 `json:"speed_lo,omitempty"`
	SpeedHi float64 `json:"speed_hi,omitempty"`
	// PauseS is the random-waypoint pause at each waypoint, seconds.
	PauseS float64 `json:"pause_s,omitempty"`
	// Alpha is the Gauss-Markov memory parameter in [0, 1) (default 0.75).
	Alpha float64 `json:"alpha,omitempty"`
	// Groups is the RPGM group count (default 4).
	Groups int `json:"groups,omitempty"`
	// RadiusM is the RPGM cohesion radius in meters (default 50).
	RadiusM float64 `json:"radius_m,omitempty"`
	// FieldW and FieldH bound the motion field in meters. They default to
	// the random_nodes field; explicit-node scenarios must set them for
	// any non-stationary model.
	FieldW float64 `json:"field_w,omitempty"`
	FieldH float64 `json:"field_h,omitempty"`
	// ChargeEnergy charges batteries for ambient movement with the
	// locomotion model E_M(d) = k·d (same accounting as iMobif relay
	// movement). Default off: ambient motion models a free carrier.
	ChargeEnergy bool `json:"charge_energy,omitempty"`
}

// CrashSpec is one scheduled node outage.
type CrashSpec struct {
	Node       int     `json:"node"`
	AtSeconds  float64 `json:"at_s"`
	RecoverAtS float64 `json:"recover_at_s,omitempty"`
}

// Load parses a scenario from JSON.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing: %w", err)
	}
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses a scenario from a JSON file.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Load(f)
}

func (s *Scenario) applyDefaults() {
	def := netsim.DefaultConfig()
	if s.RangeMeters == 0 {
		s.RangeMeters = def.Radio.Range
	}
	if s.TxA == 0 {
		s.TxA = def.Radio.Tx.A
	}
	if s.TxB == 0 {
		s.TxB = def.Radio.Tx.B
	}
	if s.PathLossExp == 0 {
		s.PathLossExp = def.Radio.Tx.Alpha
	}
	if s.MobilityCost == 0 {
		s.MobilityCost = def.Mobility.K
	}
	if s.Strategy.Name == "" {
		s.Strategy.Name = mobility.MinEnergy{}.Name()
	}
	if s.Mode == "" {
		s.Mode = "informed"
	}
	if s.MaxStepMeters == 0 {
		s.MaxStepMeters = def.MaxStep
	}
	if s.PacketBytes == 0 {
		s.PacketBytes = def.PacketBits / 8
	}
	if s.RateBytesPerSec == 0 {
		s.RateBytesPerSec = def.FlowRateBps / 8
	}
	if s.EstimateScale == 0 {
		s.EstimateScale = 1
	}
}

// Validate checks the scenario's internal consistency. It rejects
// whatever Build would, with one exception: the pinned flow paths of a
// random_nodes placement, which is drawn in Build, are range-checked
// only there. Over explicit nodes a path is checked here as Build checks
// it: no repeated node, every hop within radio range.
func (s *Scenario) Validate() error {
	if len(s.Nodes) == 0 && s.RandomNodes == nil {
		return errors.New("scenario: no nodes (set nodes or random_nodes)")
	}
	if len(s.Nodes) > 0 && s.RandomNodes != nil {
		return errors.New("scenario: set either nodes or random_nodes, not both")
	}
	for i, nd := range s.Nodes {
		if nd.Joules < 0 {
			return fmt.Errorf("scenario: node %d has negative energy %v", i, nd.Joules)
		}
	}
	if s.RandomNodes != nil {
		r := s.RandomNodes
		if r.Count < 2 || r.FieldW <= 0 || r.FieldH <= 0 || r.EnergyLo <= 0 || r.EnergyHi < r.EnergyLo {
			return fmt.Errorf("scenario: bad random_nodes %+v", *r)
		}
	}
	if len(s.Flows) == 0 {
		return errors.New("scenario: no flows")
	}
	n := len(s.Nodes)
	if s.RandomNodes != nil {
		n = s.RandomNodes.Count
	}
	if n > MaxNodes {
		return fmt.Errorf("scenario: node count %d exceeds limit %d", n, MaxNodes)
	}
	for i, f := range s.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("scenario: flow %d endpoints (%d,%d) out of range [0,%d)", i, f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("scenario: flow %d has src == dst", i)
		}
		if !(f.LengthKB > 0) || math.IsInf(f.LengthKB*1024*8, 0) {
			return fmt.Errorf("scenario: flow %d length %v KB is not positive and finite in bits", i, f.LengthKB)
		}
		if len(f.Path) > 0 && f.UseAODV {
			return fmt.Errorf("scenario: flow %d sets both path and use_aodv", i)
		}
		if len(f.Path) > 0 && (f.Path[0] != f.Src || f.Path[len(f.Path)-1] != f.Dst) {
			return fmt.Errorf("scenario: flow %d path %v does not run from src %d to dst %d", i, f.Path, f.Src, f.Dst)
		}
		for _, id := range f.Path {
			if id < 0 || id >= n {
				return fmt.Errorf("scenario: flow %d path node %d out of range [0,%d)", i, id, n)
			}
		}
	}
	for i, fail := range s.Failures {
		if fail.Node < 0 || fail.Node >= n {
			return fmt.Errorf("scenario: failure %d node %d out of range", i, fail.Node)
		}
		if fail.AtSeconds < 0 {
			return fmt.Errorf("scenario: failure %d at negative time", i)
		}
	}
	if s.Faults != nil {
		for i, cr := range s.Faults.Crashes {
			if cr.Node < 0 || cr.Node >= n {
				return fmt.Errorf("scenario: faults crash %d node %d out of range", i, cr.Node)
			}
		}
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario: negative trials %d", s.Trials)
	}
	if s.Trials > MaxTrials {
		return fmt.Errorf("scenario: trials %d exceeds limit %d", s.Trials, MaxTrials)
	}
	if s.Output != nil {
		if s.Output.SampleIntervalS < 0 {
			return fmt.Errorf("scenario: negative sample interval %v", s.Output.SampleIntervalS)
		}
		if v := s.Output.SampleIntervalS; v != 0 && !(v >= MinSampleIntervalS && v <= math.MaxFloat64) {
			return fmt.Errorf("scenario: sample interval %v s is neither 0 (off) nor finite and at least %v s", v, MinSampleIntervalS)
		}
		if s.Output.Trace && s.Trials > 1 {
			return errors.New("scenario: trace capture requires a single trial")
		}
	}
	// The model fields (radio, locomotion, strategy, mode, faults,
	// motion) are checked by compiling them, so whatever Build would
	// reject is rejected here, before any trial runs.
	cfg, err := s.config()
	if err != nil {
		return err
	}
	return s.checkPaths(cfg.Radio.Range)
}

// checkPaths applies Build's route check (routing.ValidateRoute) to the
// pinned flow paths over an explicit placement at radio range r: no node
// repeats, and every hop is within range by topo.Graph.Connected's
// comparison. Path node IDs are already known to be in range.
func (s *Scenario) checkPaths(r float64) error {
	if len(s.Nodes) == 0 {
		return nil
	}
	var seen []bool
	for i, f := range s.Flows {
		if len(f.Path) == 0 {
			continue
		}
		if seen == nil {
			seen = make([]bool, len(s.Nodes))
		}
		for k, id := range f.Path {
			if seen[id] {
				return fmt.Errorf("scenario: flow %d: node %d repeats in path", i, id)
			}
			seen[id] = true
			if k == 0 {
				continue
			}
			a, b := s.Nodes[f.Path[k-1]], s.Nodes[id]
			if !(geom.Pt(a.X, a.Y).Dist2(geom.Pt(b.X, b.Y)) <= r*r) {
				return fmt.Errorf("scenario: flow %d: hop %d -> %d out of range", i, f.Path[k-1], id)
			}
		}
		for _, id := range f.Path {
			seen[id] = false
		}
	}
	return nil
}

// config converts the JSON spec to the motion layer's configuration,
// defaulting the field to (defaultW, defaultH) — the random_nodes field
// when present. A nil spec maps to a nil config (ambient motion off).
func (m *MotionSpec) config(defaultW, defaultH float64) *motion.Config {
	if m == nil {
		return nil
	}
	cfg := &motion.Config{
		Model:         m.Model,
		Seed:          m.Seed,
		Interval:      m.IntervalS,
		FieldW:        m.FieldW,
		FieldH:        m.FieldH,
		SpeedLo:       m.SpeedLo,
		SpeedHi:       m.SpeedHi,
		Pause:         m.PauseS,
		Alpha:         m.Alpha,
		Groups:        m.Groups,
		Radius:        m.RadiusM,
		ChargeBattery: m.ChargeEnergy,
	}
	if cfg.FieldW == 0 {
		cfg.FieldW = defaultW
	}
	if cfg.FieldH == 0 {
		cfg.FieldH = defaultH
	}
	return cfg
}

// motionConfig resolves the scenario's motion spec against its deployment
// field.
func (s *Scenario) motionConfig() *motion.Config {
	var w, h float64
	if s.RandomNodes != nil {
		w, h = s.RandomNodes.FieldW, s.RandomNodes.FieldH
	}
	return s.Motion.config(w, h)
}

// config converts the JSON spec to the fault layer's configuration. A nil
// spec maps to a nil config (fault layer off).
func (f *FaultsSpec) config() *fault.Config {
	if f == nil {
		return nil
	}
	cfg := &fault.Config{
		LossP:         f.LossP,
		DistanceScale: f.DistanceScale,
		MeanBurst:     f.MeanBurst,
		Seed:          f.Seed,
		RetryLimit:    f.RetryLimit,
		RetryTimeout:  f.RetryTimeoutSec,
		AckBits:       f.AckBytes * 8,
		RouteRepair:   f.RouteRepair,
	}
	for _, cr := range f.Crashes {
		cfg.Crashes = append(cfg.Crashes, fault.Crash{
			Node: cr.Node, At: cr.AtSeconds, RecoverAt: cr.RecoverAtS,
		})
	}
	return cfg
}

// BuildOption adjusts the netsim configuration a scenario materializes
// into, beyond what the JSON document itself expresses — observability
// attachments for the service layer. Options run after the scenario's
// own fields are applied.
type BuildOption func(cfg *netsim.Config)

// WithSink attaches a trace sink to the built world: every simulation
// event is delivered to it as the run produces it (the hook behind the
// service API's JSONL trace streaming).
func WithSink(sink trace.Sink) BuildOption {
	return func(cfg *netsim.Config) { cfg.Sink = sink }
}

// WithSampleInterval enables time-resolved metrics sampling every
// seconds of simulated time (netsim Config.SampleInterval).
func WithSampleInterval(seconds float64) BuildOption {
	return func(cfg *netsim.Config) { cfg.SampleInterval = sim.Time(seconds) }
}

// config compiles the scenario's model fields into the world
// configuration Build runs, through netsim's one compile path
// (ParseMode, WithStrategy).
func (s *Scenario) config() (netsim.Config, error) {
	mode, err := netsim.ParseMode(s.Mode)
	if err != nil {
		return netsim.Config{}, fmt.Errorf("scenario: %w", err)
	}
	cfg := netsim.DefaultConfig()
	cfg.Radio = radio.Config{
		Tx:            energy.TxModel{A: s.TxA, B: s.TxB, Alpha: s.PathLossExp},
		Range:         s.RangeMeters,
		ChargeControl: s.ChargeControl,
	}
	cfg.Mobility = energy.MobilityModel{K: s.MobilityCost}
	cfg.Mode = mode
	cfg.MaxStep = s.MaxStepMeters
	cfg.PacketBits = s.PacketBytes * 8
	cfg.FlowRateBps = s.RateBytesPerSec * 8
	cfg.EstimateScale = s.EstimateScale
	cfg.StopOnFirstDeath = s.StopOnFirstDeath
	cfg.Faults = s.Faults.config()
	cfg.Motion = s.motionConfig()
	cfg, err = cfg.WithStrategy(s.Strategy.Name, s.Strategy.Params)
	if err != nil {
		return netsim.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return cfg, nil
}

// Build materializes the scenario into a ready-to-run world.
func (s *Scenario) Build(opts ...BuildOption) (*netsim.World, []netsim.NodeID, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, nil, err
	}
	for _, opt := range opts {
		opt(&cfg)
	}

	var positions []geom.Point
	var energies []float64
	if s.RandomNodes != nil {
		rng := stats.NewSource(s.Seed)
		positions = topo.PlaceUniform(rng, s.RandomNodes.Count, s.RandomNodes.FieldW, s.RandomNodes.FieldH)
		energies = make([]float64, s.RandomNodes.Count)
		for i := range energies {
			energies[i] = rng.Uniform(s.RandomNodes.EnergyLo, s.RandomNodes.EnergyHi)
		}
	} else {
		for _, n := range s.Nodes {
			positions = append(positions, geom.Pt(n.X, n.Y))
			energies = append(energies, n.Joules)
		}
	}
	w, err := netsim.NewWorld(cfg, positions, energies)
	if err != nil {
		return nil, nil, err
	}
	var flowIDs []netsim.NodeID
	for i, f := range s.Flows {
		path := f.Path
		if f.UseAODV {
			path, err = w.DiscoverPath(f.Src, f.Dst)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: flow %d AODV discovery: %w", i, err)
			}
		}
		id, err := w.AddFlow(netsim.FlowSpec{
			Src: f.Src, Dst: f.Dst,
			LengthBits: f.LengthKB * 1024 * 8,
			Path:       path,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("scenario: flow %d: %w", i, err)
		}
		flowIDs = append(flowIDs, int(id))
	}
	for _, fail := range s.Failures {
		if err := w.ScheduleNodeFailure(fail.Node, sim.Time(fail.AtSeconds)); err != nil {
			return nil, nil, err
		}
	}
	return w, flowIDs, nil
}
