package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/hello"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/motion"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/topo"
	"repro/internal/trace"
)

// dataPacket is one in-flight data packet. Packets travel by pointer and
// are recycled through the world's pool once the radio has delivered
// them, so the steady-state hop path allocates nothing (see freeList).
type dataPacket struct {
	hdr core.Header
}

// FlowSpec describes one flow to simulate.
type FlowSpec struct {
	Src, Dst NodeID
	// LengthBits is the total flow length.
	LengthBits float64
	// Path optionally pins an explicit node path (src..dst inclusive);
	// when nil the world's planner computes it on the initial topology.
	Path []NodeID
}

// flowRuntime tracks one flow's live state.
type flowRuntime struct {
	id            core.FlowID
	spec          FlowSpec
	path          []NodeID
	source        *core.Source
	delivered     float64
	deliveredPkts int
	drops         int
	emitted       int
	notifications int
	statusFlips   int
	lastDelivery  sim.Time
	inflight      int
	// stalled marks a flow that can never finish (its source died).
	stalled bool
}

// World is a single simulation scenario.
type World struct {
	cfg    Config
	sched  *sim.Scheduler
	medium *radio.Medium
	nodes  []*node
	flows  []*flowRuntime

	// store holds the dense struct-of-arrays node state (position,
	// battery, alive flag); see store.go.
	store nodeStore
	// rows answers every in-range question: HELLO seeding and receiver
	// sets, AODV flood fan-out and Graph (see store.go).
	rows neighborRows
	// beacons buffers the batched HELLO round, round sizes the round's
	// data-parallel split, splitRounds counts the rounds that took it,
	// and beaconScans counts the drift scan's shouldBeacon evaluations
	// (see hello_round.go). The other two are seams for the
	// round-path differential tests: perMessageHello forces every round
	// onto the per-message path, and afterRound, when set, runs at the end
	// of every round.
	beacons         beaconBatch
	round           roundSplit
	splitRounds     uint64
	beaconScans     uint64
	perMessageHello bool
	afterRound      func()
	// log stands in for the tables of the nodes that are not readers
	// (see tables.go). tableWrites counts the rows written into tables,
	// replay and compaction included, and tableReads the rows relays
	// read from them.
	log         tableLog
	tableWrites uint64
	tableReads  uint64
	// topoGraph caches Graph's result until a node moves: flows are
	// added before Run, when no node has moved, so one graph serves them
	// all (rebuilding it per flow is quadratic pain at 100k nodes and
	// 1000 flows). NewWorld builds it for the seeding.
	topoGraph *topo.Graph

	beaconer   *hello.Beaconer
	failures   []failure
	recoveries []failure
	firstDeath sim.Time // negative until a node dies
	// injector is the fault layer's loss model, nil on the ideal channel.
	// transport counts the retry/ack layer's activity.
	injector  *fault.Injector
	transport metrics.TransportStats
	// observing caches whether a Sink is attached; the hot-path trace()
	// bails on this single bool so the zero-observer run pays one
	// predictable branch per event point.
	observing bool
	// series collects time-resolved metrics when Config.SampleInterval
	// is positive; nil disables sampling.
	series *metrics.TimeSeries
	// lastActivity is the time of the most recent flow event (emission,
	// delivery, or drop); the beacon-round watchdog uses it to end runs
	// whose in-flight accounting was broken by silent packet loss (e.g. a
	// receiver dying mid-reception under the rx-cost model).
	lastActivity sim.Time
	started      bool

	// motionModel drives ambient (environment) mobility when
	// Config.Motion enables it; nil means the layer is absent — no
	// motion tick is ever armed, keeping the default run bit-identical to
	// the pre-motion simulator.
	motionModel motion.Model

	// emitFn, markDeadFn, markAliveFn, and motionFn are the world's
	// long-lived scheduler callbacks (sim.Func): recurring events schedule
	// them with a per-event argument instead of allocating a closure per
	// event. motionFn is the motion tick and takes no argument.
	emitFn      sim.Func
	markDeadFn  sim.Func
	markAliveFn sim.Func
	motionFn    sim.Func
	// The radio delivers synchronously, so a message is fully consumed
	// before its send returns: packet, ack and beacon boxes are recycled
	// through free lists instead of allocated per hop. pendingTxs
	// recycles the retry transport's pending entries; an entry goes back
	// only once no armed timer refers to it.
	packets     freeList[dataPacket]
	acks        freeList[ackPacket]
	beaconBoxes freeList[hello.Beacon]
	pendingTxs  freeList[pendingTx]
	// Scratch buffers reused across hot-path calls (the world is
	// single-threaded): flow-table rows for movement decisions and
	// per-flow targets/weights for multi-flow relays.
	entryScratch  []*core.FlowEntry
	targetScratch []geom.Point
	weightScratch []float64
}

// freeList is a stack of reusable boxes; the world is single-threaded,
// so it needs no locking.
type freeList[T any] struct {
	free []*T
}

func (f *freeList[T]) get() *T {
	if n := len(f.free); n > 0 {
		v := f.free[n-1]
		f.free = f.free[:n-1]
		return v
	}
	return new(T)
}

// put recycles v, whose holder must no longer use it.
func (f *freeList[T]) put(v *T) {
	f.free = append(f.free, v)
}

// failure is a scheduled node crash (failure injection).
type failure struct {
	node NodeID
	at   sim.Time
}

// NewWorld builds a world with the given node positions and initial
// energies (parallel slices).
func NewWorld(cfg Config, positions []geom.Point, energies []float64) (*World, error) {
	return newWorld(cfg, positions, energies, defaultRoundSplit())
}

// newWorld is NewWorld with the HELLO round split given, so tests can
// force the data-parallel rounds onto small scenes.
func newWorld(cfg Config, positions []geom.Point, energies []float64, split roundSplit) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(positions) != len(energies) {
		return nil, fmt.Errorf("netsim: %d positions vs %d energies", len(positions), len(energies))
	}
	if len(positions) < 2 {
		return nil, errors.New("netsim: need at least two nodes")
	}
	// Strategies that bundle a route-selection policy supply their planner
	// when the configuration leaves the default greedy one in place; an
	// explicitly chosen planner always wins. cfg is a copy, so the caller's
	// Config is never mutated.
	if pp, ok := cfg.Strategy.(mobility.PlannerProvider); ok {
		if _, isDefault := cfg.Planner.(routing.GreedyPlanner); isDefault {
			cfg.Planner = pp.RoutePlanner()
		}
	}
	sched := sim.NewScheduler()
	// Build the fault injector (nil config → nil injector → ideal channel)
	// and install it as the medium's loss hook. The hook is set on a local
	// copy so the caller's Config is never mutated.
	injector, err := fault.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}
	rcfg := cfg.Radio
	if injector != nil {
		rcfg.Faults = injector
	}
	medium, err := radio.NewMedium(rcfg)
	if err != nil {
		return nil, err
	}
	w := &World{cfg: cfg, sched: sched, medium: medium, firstDeath: -1, injector: injector,
		observing: cfg.Sink != nil, round: split}
	w.rows.build = w.rows.builder.Rows
	if cfg.NeighborIndex == spatial.KindBrute {
		w.rows.build = spatial.BruteRows
	}
	w.rows.setMargin(cfg.Radio.Range, cfg.Radio.Range*rowMargin)
	w.emitFn = func(arg any) { w.emit(arg.(*flowRuntime)) }
	w.markDeadFn = func(arg any) { w.markDead(arg.(*node)) }
	w.markAliveFn = func(arg any) { w.markAlive(arg.(*node)) }
	w.motionFn = func(any) { w.motionTick() }
	if m := motion.New(cfg.Motion); m != nil {
		m.Init(positions)
		w.motionModel = m
	}
	for i := range positions {
		if energies[i] < 0 {
			return nil, fmt.Errorf("netsim: negative energy %v for node %d", energies[i], i)
		}
	}
	w.store = newNodeStore(positions, energies)
	w.nodes = make([]*node, 0, len(positions))
	for i := range positions {
		n := &node{id: i, world: w, flows: core.NewTable()}
		w.nodes = append(w.nodes, n)
		if err := medium.Register(i, n); err != nil {
			return nil, err
		}
	}
	medium.UseLocator(worldLocator{w})
	w.seedTables()
	// Adopt the fault layer's crash/recovery schedule (node IDs can only
	// be range-checked here, once the node count is known).
	if cfg.Faults != nil {
		for _, cr := range cfg.Faults.Crashes {
			if err := w.ScheduleNodeFailure(cr.Node, sim.Time(cr.At)); err != nil {
				return nil, err
			}
			if cr.RecoverAt > 0 {
				if err := w.ScheduleNodeRecovery(cr.Node, sim.Time(cr.RecoverAt)); err != nil {
					return nil, err
				}
			}
		}
	}
	return w, nil
}

// retryEnabled reports whether the hop-by-hop retry/ack transport is on.
func (w *World) retryEnabled() bool { return w.cfg.Faults.RetryEnabled() }

// Graph returns the unit-disk connectivity graph over current positions.
// It is built once and returned again until a node moves.
func (w *World) Graph() (*topo.Graph, error) {
	if w.topoGraph == nil {
		w.topoGraph = w.rowGraph(false)
	}
	return w.topoGraph, nil
}

// rowGraph filters the neighbor rows to the radio range into a row graph
// over a copy of the current positions. With live set, dead nodes are
// left out of every row and get an empty one of their own.
func (w *World) rowGraph(live bool) *topo.Graph {
	w.freshRows()
	dead := w.store.dead
	off := make([]NodeID, len(w.nodes)+1)
	adj := make([]NodeID, 0, len(w.rows.ids))
	for i := range w.nodes {
		if !live || !dead[i] {
			from := len(adj)
			adj = w.appendInRange(adj, i)
			if live {
				adj = adj[:from+len(slices.DeleteFunc(adj[from:], func(j NodeID) bool { return dead[j] }))]
			}
		}
		off[i+1] = len(adj)
	}
	// NewRowGraph fails only on a non-positive radius, which Config
	// validation rejects, or on malformed rows.
	g, _ := topo.NewRowGraph(append([]geom.Point(nil), w.store.pos...), w.cfg.Radio.Range, off, adj)
	return g
}

// AddFlow registers a flow before Run. It plans (or validates) the path on
// the current topology, installs flow state along it, and returns the
// flow's ID.
func (w *World) AddFlow(spec FlowSpec) (core.FlowID, error) {
	if w.started {
		return 0, errors.New("netsim: cannot add flows after Run")
	}
	if spec.Src == spec.Dst {
		return 0, errors.New("netsim: flow source equals destination")
	}
	if spec.Src < 0 || spec.Src >= len(w.nodes) || spec.Dst < 0 || spec.Dst >= len(w.nodes) {
		return 0, fmt.Errorf("netsim: flow endpoints (%d,%d) out of range", spec.Src, spec.Dst)
	}
	if !(spec.LengthBits > 0) || math.IsInf(spec.LengthBits, 0) {
		return 0, fmt.Errorf("netsim: flow length %v is not positive and finite", spec.LengthBits)
	}
	// All flows are added before Run on the unmoved t=0 placement, so one
	// cached graph plans and validates every flow.
	g, err := w.Graph()
	if err != nil {
		return 0, err
	}
	path := spec.Path
	if path == nil {
		path, err = w.planPath(g, spec.Src, spec.Dst)
		if err != nil {
			return 0, fmt.Errorf("netsim: planning flow path: %w", err)
		}
	} else {
		// Own the path: route repair splices fr.path in place, which must
		// never mutate a caller-held slice.
		path = append([]NodeID(nil), path...)
	}
	if err := routing.ValidateRoute(g, path, spec.Src, spec.Dst); err != nil {
		return 0, err
	}

	id := core.FlowID(len(w.flows) + 1)
	startEnabled := w.cfg.StartEnabled
	if w.cfg.Mode == ModeCostUnaware {
		startEnabled = true
	}
	if w.cfg.Mode == ModeNoMobility {
		startEnabled = false
	}
	src, err := core.NewSource(id, spec.Src, spec.Dst, w.cfg.Strategy, spec.LengthBits, startEnabled, w.cfg.EstimateScale)
	if err != nil {
		return 0, err
	}
	fr := &flowRuntime{id: id, spec: spec, path: path, source: src, lastDelivery: -1}
	w.flows = append(w.flows, fr)

	// Install the pinned flow path into every on-path node's flow table
	// (paper §2: the flow table holds previous and next node per flow).
	seed := core.Header{
		Flow: id, Src: spec.Src, Dst: spec.Dst,
		ResidualBits: spec.LengthBits,
		Strategy:     w.cfg.Strategy.Name(),
		Enabled:      startEnabled,
	}
	for i, nid := range path {
		prev, next := -1, -1
		if i > 0 {
			prev = path[i-1]
		}
		if i < len(path)-1 {
			next = path[i+1]
		}
		w.joinFlow(nid, &seed, prev, next)
	}
	return id, nil
}

// ScheduleNodeFailure crashes a node at the given virtual time: it stops
// transmitting, receiving, moving, and beaconing. Its battery is left
// untouched (this models hardware failure, not energy exhaustion), but the
// crash still counts as the first "death" for lifetime purposes. Failures
// must be scheduled before Run.
func (w *World) ScheduleNodeFailure(id NodeID, at sim.Time) error {
	if w.started {
		return errors.New("netsim: cannot schedule failures after Run")
	}
	if id < 0 || id >= len(w.nodes) {
		return fmt.Errorf("netsim: node id %d out of range", id)
	}
	if at < 0 {
		return fmt.Errorf("netsim: negative failure time %v", at)
	}
	w.failures = append(w.failures, failure{node: id, at: at})
	return nil
}

// ScheduleNodeRecovery brings a crashed node back at the given virtual
// time: it resumes receiving, relaying, moving, and beaconing, and
// re-announces itself with an immediate HELLO so neighbors relearn it.
// Recovering a node that is not dead at that time is a no-op. Recoveries
// must be scheduled before Run.
func (w *World) ScheduleNodeRecovery(id NodeID, at sim.Time) error {
	if w.started {
		return errors.New("netsim: cannot schedule recoveries after Run")
	}
	if id < 0 || id >= len(w.nodes) {
		return fmt.Errorf("netsim: node id %d out of range", id)
	}
	if at < 0 {
		return fmt.Errorf("netsim: negative recovery time %v", at)
	}
	w.recoveries = append(w.recoveries, failure{node: id, at: at})
	return nil
}

// Result summarizes a finished run.
type Result struct {
	// Flows holds per-flow outcomes in AddFlow order.
	Flows []metrics.FlowOutcome
	// Energy is the network-wide consumption.
	Energy metrics.EnergyBreakdown
	// Initial and Final capture the network state around the run
	// (Figure 5's before/after views).
	Initial, Final metrics.Snapshot
	// FirstDeath is the time of the first node death, negative if none.
	FirstDeath sim.Time
	// Duration is the virtual time when the run ended.
	Duration sim.Time
	// Medium reports channel activity counters.
	Medium radio.Stats
	// Transport reports the retry/ack layer's counters (all zero on the
	// ideal channel).
	Transport metrics.TransportStats
	// Faults reports the loss injector's counters (all zero on the ideal
	// channel).
	Faults fault.Stats
	// Series holds the sampled time-resolved metrics when
	// Config.SampleInterval is positive, nil otherwise.
	Series *metrics.TimeSeries
	// Canceled reports that RunContext returned early because its
	// context was canceled. The rest of the Result is the deterministic
	// partial state as of the last event that fired.
	Canceled bool
}

// Outcome returns the outcome of the single flow in a one-flow world.
// It panics if the world has not exactly one flow (programming error).
func (r Result) Outcome() metrics.FlowOutcome {
	if len(r.Flows) != 1 {
		panic(fmt.Sprintf("netsim: Outcome on %d flows", len(r.Flows)))
	}
	return r.Flows[0]
}

// Run executes the scenario to completion: all flows done (or stalled
// dead), first death if StopOnFirstDeath, or the horizon. Worlds are
// single-use; calling Run twice is an error.
func (w *World) Run() (Result, error) {
	return w.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: ctx is checked between
// scheduler events, so a canceled run stops at an event boundary and
// returns the deterministic partial Result as of the last event that
// fired, with Result.Canceled set and a nil error. Cancellation is the
// only behavioural difference — RunContext(context.Background()) is
// exactly Run.
func (w *World) RunContext(ctx context.Context) (Result, error) {
	if w.started {
		return Result{}, errors.New("netsim: world already ran")
	}
	if len(w.flows) == 0 {
		return Result{}, errors.New("netsim: no flows added")
	}
	w.started = true
	initial := w.snapshot()

	// Arm ambient mobility: one recurring motion tick that steps every
	// node, first firing one interval in (positions at t=0 are the
	// placement). With the layer disabled no event exists at all. The tick
	// is armed before the beaconer on purpose: at a shared instant it then
	// fires before the HELLO round, so beacons advertise the
	// already-moved positions.
	if w.motionModel != nil {
		if _, err := w.sched.AtArg(sim.Time(w.cfg.Motion.StepInterval()), w.motionFn, nil); err != nil {
			return Result{}, err
		}
	}

	// Start HELLO beaconing: one world-level round per interval, with
	// per-node triggered-update suppression (see Config.BeaconMoveEps).
	if w.cfg.HelloInterval > 0 {
		b, err := hello.NewBeaconer(w.sched, w.cfg.HelloInterval, w.beaconRound)
		if err != nil {
			return Result{}, err
		}
		w.beaconer = b
		if err := b.Start(); err != nil {
			return Result{}, err
		}
	}

	// Start metrics sampling before the flows so the t=0 sample sees the
	// untouched initial state. The tick reschedules itself; once the run
	// stops, pending ticks die with the queue and the final sample below
	// closes the series.
	if w.cfg.SampleInterval > 0 {
		w.series = metrics.NewTimeSeries(w.cfg.SampleInterval)
		var tick func()
		tick = func() {
			w.sample()
			_, _ = w.sched.After(w.cfg.SampleInterval, tick)
		}
		if _, err := w.sched.At(0, tick); err != nil {
			return Result{}, err
		}
	}

	// Arm scheduled failures and recoveries.
	for _, f := range w.failures {
		if _, err := w.sched.AtArg(f.at, w.markDeadFn, w.nodes[f.node]); err != nil {
			return Result{}, err
		}
	}
	for _, f := range w.recoveries {
		if _, err := w.sched.AtArg(f.at, w.markAliveFn, w.nodes[f.node]); err != nil {
			return Result{}, err
		}
	}

	// Start flow emission.
	for _, fr := range w.flows {
		if _, err := w.sched.AtArg(0, w.emitFn, fr); err != nil {
			return Result{}, err
		}
	}

	canceled := false
	if err := w.sched.RunUntilContext(ctx, w.cfg.Horizon); err != nil {
		switch {
		case errors.Is(err, sim.ErrStopped):
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			canceled = true
		default:
			return Result{}, err
		}
	}
	if w.series != nil {
		// Close the series with the end-of-run state (dropped by Append
		// when a periodic tick already sampled this instant).
		w.sample()
	}

	res := Result{
		Initial:    initial,
		Final:      w.snapshot(),
		FirstDeath: w.firstDeath,
		Duration:   w.sched.Now(),
		Medium:     w.medium.Stats(),
		Transport:  w.transport,
		Faults:     w.injector.Stats(),
		Series:     w.series,
		Canceled:   canceled,
	}
	for i := range w.store.batteries {
		res.Energy = res.Energy.Add(metrics.FromBattery(&w.store.batteries[i]))
	}
	for _, fr := range w.flows {
		dur := fr.lastDelivery
		if dur < 0 {
			dur = w.sched.Now()
		}
		res.Flows = append(res.Flows, metrics.FlowOutcome{
			Completed:      fr.source.Done() && fr.delivered >= fr.spec.LengthBits-1e-6,
			DeliveredBits:  fr.delivered,
			Duration:       dur,
			FirstDeath:     w.firstDeath,
			Energy:         res.Energy,
			Notifications:  fr.notifications,
			StatusFlips:    fr.source.Notifications(),
			PathLen:        len(fr.path),
			PacketsEmitted: fr.emitted,
			PacketsDropped: fr.emitted - fr.deliveredPkts,
		})
	}
	return res, nil
}

// sample appends one time-series point capturing the network's current
// cumulative energy spend, residual-energy distribution, and delivery
// counters. It reads state only, so sampling never perturbs the run.
func (w *World) sample() {
	s := metrics.Sample{At: w.sched.Now(), ResidualMin: math.Inf(1)}
	var residualTotal float64
	for i := range w.store.batteries {
		b := &w.store.batteries[i]
		r := b.Residual()
		residualTotal += r
		if r < s.ResidualMin {
			s.ResidualMin = r
		}
		if !w.store.dead[i] {
			s.AliveNodes++
		}
		s.Energy = s.Energy.Add(metrics.FromBattery(b))
	}
	s.ResidualMean = residualTotal / float64(len(w.nodes))
	for _, fr := range w.flows {
		s.DeliveredPackets += uint64(fr.deliveredPkts)
		s.DroppedPackets += uint64(fr.drops)
	}
	s.Retransmits = w.transport.Retransmits
	w.series.Append(s)
}

// snapshot captures all node states.
func (w *World) snapshot() metrics.Snapshot {
	s := metrics.Snapshot{At: w.sched.Now()}
	s.Nodes = make([]metrics.NodeSnapshot, len(w.store.pos))
	for i := range w.store.pos {
		s.Nodes[i] = metrics.NodeSnapshot{ID: i, Pos: w.store.pos[i], Residual: w.store.batteries[i].Residual()}
	}
	return s
}

// PathSnapshot returns the current positions along a flow's path, in path
// order — the Figure 5 view.
func (w *World) PathSnapshot(id core.FlowID) ([]geom.Point, error) {
	for _, fr := range w.flows {
		if fr.id == id {
			out := make([]geom.Point, len(fr.path))
			for i, nid := range fr.path {
				out[i] = w.store.pos[nid]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("%w: %d", core.ErrUnknownFlow, id)
}

// FlowPath returns the pinned node path of a flow.
func (w *World) FlowPath(id core.FlowID) ([]NodeID, error) {
	for _, fr := range w.flows {
		if fr.id == id {
			return append([]NodeID(nil), fr.path...), nil
		}
	}
	return nil, fmt.Errorf("%w: %d", core.ErrUnknownFlow, id)
}

// emit sends one data packet from a flow's source and schedules the next
// emission.
func (w *World) emit(fr *flowRuntime) {
	if fr.source.Done() {
		return
	}
	srcNode := w.nodes[fr.spec.Src]
	if srcNode.dead() {
		// The source died: the flow can never finish. Mark it stalled so
		// the run can end instead of idling to the horizon.
		fr.stalled = true
		w.maybeFinish()
		return
	}
	hdr, err := fr.source.NextHeader(w.cfg.PacketBits)
	if err != nil {
		return
	}
	// The next hop comes from the source's flow-table entry, which route
	// repair keeps current; before any repair it equals fr.path[1].
	next := fr.path[1]
	if entry, err := srcNode.flows.Get(fr.id); err == nil {
		next = entry.Next
	}
	core.AggregateSource(&hdr, w.cfg.Strategy, w.cfg.Radio.Tx, srcNode.pos(), w.store.pos[next], srcNode.battery().Residual())
	fr.emitted++
	fr.inflight++
	w.lastActivity = w.sched.Now()
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindPacketSent, Node: srcNode.id,
		Flow: uint64(hdr.Flow), Seq: hdr.Seq})
	if w.retryEnabled() {
		srcNode.sendReliable(fr, hdr)
	} else {
		pkt := w.packets.get()
		pkt.hdr = hdr
		err := w.medium.Unicast(srcNode.id, next, hdr.PayloadBits, energy.CatTx, pkt)
		w.packets.put(pkt)
		if err != nil {
			w.drop(fr)
			w.noteDepletion(srcNode, err)
		}
	}
	// Pace the next packet regardless of this one's fate.
	interval := sim.Time(w.cfg.PacketBits / w.cfg.FlowRateBps)
	if !fr.source.Done() {
		if _, err := w.sched.AfterArg(interval, w.emitFn, fr); err != nil {
			return
		}
	} else {
		w.maybeFinish()
	}
}

// maybeFinish stops the scheduler once every flow has finished sending and
// nothing is in flight (beacons would otherwise keep the queue alive
// forever).
func (w *World) maybeFinish() {
	for _, fr := range w.flows {
		if fr.stalled {
			continue
		}
		if !fr.source.Done() || fr.inflight > 0 {
			return
		}
	}
	w.sched.Stop()
}

// drop accounts a lost data packet and re-checks the finish condition.
// The inflight count is clamped at zero: under the retry transport a
// packet can, in rare interleavings (every ack of a hop lost until retry
// exhaustion while the data sailed on), be accounted both as dropped
// upstream and delivered downstream.
func (w *World) drop(fr *flowRuntime) {
	if fr.inflight > 0 {
		fr.inflight--
	}
	fr.drops++
	w.lastActivity = w.sched.Now()
	w.maybeFinish()
}

// noteDepletion records a node death if err wraps energy.ErrDepleted.
func (w *World) noteDepletion(n *node, err error) {
	if !errors.Is(err, energy.ErrDepleted) {
		return
	}
	w.markDead(n)
}

func (w *World) markDead(n *node) {
	if n.dead() {
		return
	}
	w.store.dead[n.id] = true
	if w.firstDeath < 0 {
		w.firstDeath = w.sched.Now()
	}
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNodeDied, Node: n.id, Pos: n.pos()})
	if w.cfg.StopOnFirstDeath {
		w.sched.Stop()
		return
	}
	// Under route repair, proactively re-plan every live flow whose path
	// runs through the crashed relay, instead of waiting for upstream
	// retry exhaustion.
	if w.cfg.Faults != nil && w.cfg.Faults.RouteRepair && w.started {
		w.repairAroundDead(n)
	}
}

// markAlive reverses a scheduled crash: the node resumes participating
// and immediately re-broadcasts its HELLO so neighbors relearn it.
func (w *World) markAlive(n *node) {
	if !n.dead() {
		return
	}
	w.store.dead[n.id] = false
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNodeRecovered, Node: n.id, Pos: n.pos()})
	n.sendBeacon()
}

// motionTick is one ambient-motion step of the whole world. It re-arms
// itself first, then steps every live node in ID order — the order in
// which one recurring event per node would fire, since no step schedules
// an event — and returns as soon as a step stops the scheduler (a
// depletion under Motion.ChargeBattery and StopOnFirstDeath). Dead
// nodes skip the step: their model stream freezes, and per-node streams
// mean nobody else's trajectory shifts, so a recovered node resumes
// drifting where it left off.
func (w *World) motionTick() {
	interval := w.cfg.Motion.StepInterval()
	_, _ = w.sched.AfterArg(sim.Time(interval), w.motionFn, nil)
	for id, dead := range w.store.dead {
		if dead {
			continue
		}
		w.ambientStep(w.nodes[id], interval)
		if w.sched.Stopped() {
			return
		}
	}
}

// ambientStep advances one live node by dt seconds under the ambient
// mobility model. Movement charges the battery only when
// Motion.ChargeBattery is set, using the same locomotion model and energy
// category as iMobif relay movement.
func (w *World) ambientStep(n *node, dt float64) {
	cur := n.pos()
	next := w.motionModel.Step(n.id, cur, dt)
	d := cur.Dist(next)
	if d < geom.Epsilon {
		return
	}
	if w.cfg.Motion.ChargeBattery {
		cost := w.cfg.Mobility.MoveEnergy(d)
		if cost > 0 && !n.battery().CanDraw(cost) {
			// Drift as far as the battery allows, then die.
			afford := n.battery().Residual() / w.cfg.Mobility.K
			next, d = geom.StepToward(cur, next, afford)
			cost = n.battery().Residual()
		}
		if cost > 0 {
			if err := n.Battery().Draw(cost, energy.CatMove); err != nil {
				w.noteDepletion(n, err)
			}
		}
		if d < geom.Epsilon {
			return
		}
	}
	w.moveNode(n.id, next)
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindNodeMoved, Node: n.id, Pos: next})
}

// repairAroundDead re-plans every unfinished flow whose pinned path uses
// the dead node as a relay, splicing a live detour in from the hop before
// it.
func (w *World) repairAroundDead(n *node) {
	for _, fr := range w.flows {
		if fr.stalled || (fr.source.Done() && fr.inflight == 0) {
			continue
		}
		for i := 1; i < len(fr.path)-1; i++ {
			if fr.path[i] != n.id {
				continue
			}
			if prev := w.nodes[fr.path[i-1]]; !prev.dead() {
				w.repairFlow(fr, prev.id)
			}
			break
		}
	}
}

// repairFlow re-plans fr's path from the given on-path node to the
// destination over the live topology (dead nodes excluded), splices the
// new segment into the pinned path, and refreshes the flow tables along
// it. It reports whether a usable detour was found. This is the
// world-level counterpart of AODV route error + rediscovery: the broken
// tail is torn out and a fresh route takes its place.
func (w *World) repairFlow(fr *flowRuntime, at NodeID) bool {
	idx := -1
	for i, nid := range fr.path {
		if nid == at {
			idx = i
			break
		}
	}
	if idx < 0 || w.nodes[at].dead() {
		return false
	}
	seg, err := w.planLive(at, fr.spec.Dst)
	if err != nil {
		return false
	}
	// If the node holds an AODV table (the flow was discovered on
	// demand), propagate the break so stale routes are invalidated and a
	// RERR reaches its neighbors.
	if broken := fr.path[idx+1:]; len(broken) > 0 {
		if inst := w.nodes[at].aodv; inst != nil {
			_, _ = inst.LinkBreak(broken[0])
		}
	}
	// Splice in place: seg never aliases fr.path, and AddFlow gave the
	// runtime sole ownership of the backing array, so the repaired path
	// reuses fr.path's capacity instead of allocating per repair.
	newPath := append(fr.path[:idx], seg...)
	fr.path = newPath
	seed := core.Header{
		Flow: fr.id, Src: fr.spec.Src, Dst: fr.spec.Dst,
		ResidualBits: fr.spec.LengthBits,
		Strategy:     w.cfg.Strategy.Name(),
		Enabled:      w.cfg.StartEnabled,
	}
	for i := idx; i < len(newPath); i++ {
		prev, next := -1, -1
		if i > 0 {
			prev = newPath[i-1]
		}
		if i < len(newPath)-1 {
			next = newPath[i+1]
		}
		e := w.joinFlow(newPath[i], &seed, prev, next)
		e.Prev, e.Next = prev, next
	}
	w.transport.RouteRepairs++
	w.trace(trace.Event{At: w.sched.Now(), Kind: trace.KindRouteRepair, Node: at,
		Flow: uint64(fr.id), Hops: len(newPath) - 1})
	return true
}

// planLive plans a route over the current positions of live nodes only:
// dead nodes are left out of every row of the graph it plans on.
func (w *World) planLive(src, dst NodeID) ([]NodeID, error) {
	if w.nodes[src].dead() || w.nodes[dst].dead() {
		return nil, errors.New("netsim: live planning from or to a dead node")
	}
	return w.planPath(w.rowGraph(true), src, dst)
}

// planPath routes src→dst over g with the configured planner, feeding
// current residual battery energies to energy-aware planners so their
// routes chase the live energy landscape at both flow setup and route
// repair.
func (w *World) planPath(g *topo.Graph, src, dst NodeID) ([]NodeID, error) {
	ea, ok := w.cfg.Planner.(routing.EnergyAware)
	if !ok {
		return w.cfg.Planner.PlanRoute(g, src, dst)
	}
	energies := make([]float64, len(w.store.batteries))
	for i := range w.store.batteries {
		energies[i] = w.store.batteries[i].Residual()
	}
	return ea.PlanRouteEnergy(g, energies, src, dst)
}

// trace dispatches one event to the attached sink. It inlines to a
// single predicted branch around the sink call, keeping the
// zero-observer hot path at pre-observability cost
// (BenchmarkObserverOverhead pins this).
func (w *World) trace(e trace.Event) {
	if w.observing {
		w.cfg.Sink.Record(e)
	}
}

// node is one wireless node: radio endpoint, HELLO participant, flow
// relay/source/destination, and mobile platform.

func (w *World) flow(id core.FlowID) *flowRuntime {
	for _, fr := range w.flows {
		if fr.id == id {
			return fr
		}
	}
	return nil
}
