// Command imobif-sim runs a single wireless ad hoc network scenario under
// a chosen mobility strategy and control mode, printing the energy and
// lifetime outcome. It is the quick way to poke at the framework without
// writing code.
//
// Usage:
//
//	imobif-sim -strategy list
//	imobif-sim -nodes 100 -flow-kb 1024 -strategy min-energy -mode informed
//	imobif-sim -strategy rolling-horizon -mode cost-unaware
//	imobif-sim -mode cost-unaware -k 1.0 -alpha 3 -seed 7
//	imobif-sim -trials 200 -concurrency 0 -compare
//	imobif-sim -loss 0.1 -retry 5 -retry-timeout 0.2
//	imobif-sim -loss 0.2 -burst 4 -crash 3 -repair -retry 5 -retry-timeout 0.2
//	imobif-sim -motion random-waypoint -motion-speed-lo 1 -motion-speed-hi 3
//	imobif-sim -motion rpgm -motion-groups 4 -motion-radius 80 -motion-charge
//	imobif-sim -scenario examples/scenarios/chain.json
//	imobif-sim -trace-out run.trace.jsonl -metrics-out run.metrics.jsonl -sample-interval 0.5
//	imobif-sim -trials 500 -progress -cpuprofile cpu.pprof
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"

	imobif "repro"
	"repro/internal/prof"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 100, "number of nodes")
		field       = flag.Float64("field", 1000, "square field side, meters (0 = auto-scale to the paper's density of 100 nodes/km²)")
		index       = flag.String("index", "grid", "neighbor index: grid (O(k) spatial grid) or brute (O(n) reference); results are identical")
		rng         = flag.Float64("range", 200, "radio range, meters")
		k           = flag.Float64("k", 0.5, "mobility cost, J/m")
		alpha       = flag.Float64("alpha", 2, "path-loss exponent")
		flowKB      = flag.Float64("flow-kb", 1024, "flow length, KB")
		strategy    = flag.String("strategy", "min-energy", "mobility strategy, or 'list' to print the registered set: "+strings.Join(imobif.Strategies(), ", "))
		mode        = flag.String("mode", "informed", "control mode: no-mobility, cost-unaware, informed")
		seed        = flag.Int64("seed", 1, "random seed")
		trials      = flag.Int("trials", 1, "Monte-Carlo trials; >1 runs a batch over per-trial derived seeds and prints aggregates")
		concurrency = flag.Int("concurrency", 0, "parallel workers for -trials batches (0 = all CPUs, 1 = serial; results are identical either way)")
		compare     = flag.Bool("compare", false, "also run the no-mobility baseline and print the energy ratio")
		deaths      = flag.Bool("stop-on-death", false, "stop at the first node death (lifetime runs)")
		energyLo    = flag.Float64("energy-lo", 5000, "min initial node energy, J")
		energyHi    = flag.Float64("energy-hi", 10000, "max initial node energy, J")
		scenFile    = flag.String("scenario", "", "run a JSON scenario file instead of the flag-driven setup")

		loss         = flag.Float64("loss", 0, "per-transmission loss probability in [0,1) (0 = ideal channel)")
		burst        = flag.Float64("burst", 0, "mean loss-burst length; >= 1 switches to a Gilbert-Elliott bursty channel")
		crash        = flag.Int("crash", 0, "crash this many random relay nodes during the run (each recovers 10 s later)")
		retry        = flag.Int("retry", 0, "hop-by-hop retransmissions per packet (0 = no retry transport)")
		retryTimeout = flag.Float64("retry-timeout", 0.2, "per-hop ack wait before retransmitting, seconds")
		repair       = flag.Bool("repair", false, "re-plan flow paths around dead or unreachable relays")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for the fault injector's private stream and crash choice")

		motionModel    = flag.String("motion", "", "ambient mobility model: stationary (default), random-waypoint, gauss-markov, rpgm")
		motionInterval = flag.Float64("motion-interval", 1, "ambient movement step period, virtual seconds")
		motionSpeedLo  = flag.Float64("motion-speed-lo", 0.5, "min ambient node speed, m/s")
		motionSpeedHi  = flag.Float64("motion-speed-hi", 1.5, "max ambient node speed, m/s")
		motionPause    = flag.Float64("motion-pause", 0, "random-waypoint pause at each waypoint, seconds")
		motionAlpha    = flag.Float64("motion-alpha", 0.75, "Gauss-Markov memory parameter in [0,1)")
		motionGroups   = flag.Int("motion-groups", 4, "RPGM group count")
		motionRadius   = flag.Float64("motion-radius", 50, "RPGM group cohesion radius, meters")
		motionSeed     = flag.Int64("motion-seed", 1, "seed for the ambient mobility model's private streams")
		motionCharge   = flag.Bool("motion-charge", false, "charge node batteries for ambient movement (E_M = k·d, like relay movement)")

		traceOut       = flag.String("trace-out", "", "write the single-run event trace to this file as JSONL (single-run mode only)")
		metricsOut     = flag.String("metrics-out", "", "write time-resolved run metrics to this file as JSONL (single-run mode only)")
		sampleInterval = flag.Float64("sample-interval", 1, "metrics sampling period for -metrics-out, virtual seconds")
		progress       = flag.Bool("progress", false, "report per-trial progress of a -trials batch on stderr")
		cpuprofile     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile     = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *strategy == "list" {
		for _, name := range imobif.Strategies() {
			fmt.Println(name)
		}
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imobif-sim: %v\n", err)
		os.Exit(1)
	}

	fo := faultOpts{
		loss: *loss, burst: *burst, crash: *crash, retry: *retry,
		retryTimeout: *retryTimeout, repair: *repair, seed: *faultSeed,
	}
	mo := motionOpts{
		model: *motionModel, interval: *motionInterval,
		speedLo: *motionSpeedLo, speedHi: *motionSpeedHi,
		pause: *motionPause, alpha: *motionAlpha,
		groups: *motionGroups, radius: *motionRadius,
		seed: *motionSeed, charge: *motionCharge,
	}
	side := fieldSide(*field, *nodes)
	switch {
	case *scenFile != "":
		err = runScenario(os.Stdout, *scenFile)
	case *trials > 1:
		err = runBatch(os.Stdout, batchOpts{
			runOpts: runOpts{
				nodes: *nodes, field: side, rng: *rng, k: *k, alpha: *alpha,
				flowKB: *flowKB, strategy: *strategy, mode: *mode, seed: *seed,
				compare: *compare, deaths: *deaths,
				energyLo: *energyLo, energyHi: *energyHi,
				index: *index, faults: fo, motion: mo,
			},
			trials: *trials, concurrency: *concurrency, progress: *progress,
		})
	default:
		err = run(os.Stdout, runOpts{
			nodes: *nodes, field: side, rng: *rng, k: *k, alpha: *alpha,
			flowKB: *flowKB, strategy: *strategy, mode: *mode, seed: *seed,
			compare: *compare, deaths: *deaths,
			energyLo: *energyLo, energyHi: *energyHi,
			index: *index, faults: fo, motion: mo,
			traceOut: *traceOut, metricsOut: *metricsOut, sampleInterval: *sampleInterval,
		})
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "imobif-sim: %v\n", err)
		os.Exit(1)
	}
}

// fieldSide resolves the -field flag: a positive value is taken as-is;
// zero auto-scales the square field so node density stays at the paper's
// 100 nodes/km² (side = 1000·√(nodes/100)), keeping per-node
// neighborhood size constant as -nodes grows.
func fieldSide(field float64, nodes int) float64 {
	if field > 0 {
		return field
	}
	return 1000 * math.Sqrt(float64(nodes)/100)
}

// faultOpts carries the fault-injection flags. The zero value means the
// ideal channel: no loss, no crashes, no retry transport.
type faultOpts struct {
	loss, burst  float64
	crash        int
	retry        int
	retryTimeout float64
	repair       bool
	seed         int64
}

func (f faultOpts) enabled() bool {
	return f.loss > 0 || f.burst >= 1 || f.crash > 0 || f.retry > 0 || f.repair
}

// config converts the flags to the public fault configuration, or nil
// when every fault knob is off so the zero-fault fast path stays active.
func (f faultOpts) config() *imobif.FaultConfig {
	if !f.enabled() {
		return nil
	}
	return &imobif.FaultConfig{
		LossP:           f.loss,
		LossBurst:       f.burst,
		Seed:            f.seed,
		RetryLimit:      f.retry,
		RetryTimeoutSec: f.retryTimeout,
		RouteRepair:     f.repair,
	}
}

// motionOpts carries the ambient-mobility flags. An empty model means
// every node stays parked (the layer is absent).
type motionOpts struct {
	model            string
	interval         float64
	speedLo, speedHi float64
	pause, alpha     float64
	groups           int
	radius           float64
	seed             int64
	charge           bool
}

// config converts the flags to the public motion configuration, or nil
// when no model was selected so the stationary fast path stays active.
func (m motionOpts) config() *imobif.MotionConfig {
	if m.model == "" {
		return nil
	}
	return &imobif.MotionConfig{
		Model:        m.model,
		Seed:         m.seed,
		IntervalSec:  m.interval,
		SpeedLo:      m.speedLo,
		SpeedHi:      m.speedHi,
		PauseSec:     m.pause,
		Alpha:        m.alpha,
		Groups:       m.groups,
		RadiusMeters: m.radius,
		ChargeEnergy: m.charge,
	}
}

type runOpts struct {
	nodes              int
	field, rng, k      float64
	alpha, flowKB      float64
	strategy, mode     string
	index              string
	seed               int64
	compare, deaths    bool
	energyLo, energyHi float64
	faults             faultOpts
	motion             motionOpts

	// Observability outputs (single-run mode): JSONL event trace and
	// sampled run metrics. Empty paths disable them.
	traceOut, metricsOut string
	sampleInterval       float64
}

type batchOpts struct {
	runOpts
	trials, concurrency int
	progress            bool
}

func (o runOpts) config() (imobif.Config, error) {
	cfg := imobif.DefaultConfig()
	cfg.Nodes = o.nodes
	cfg.FieldWidth, cfg.FieldHeight = o.field, o.field
	cfg.Range = o.rng
	cfg.MobilityCost = o.k
	cfg.PathLossExp = o.alpha
	cfg.Strategy = imobif.Strategy(o.strategy)
	cfg.Mode = imobif.Mode(o.mode)
	cfg.NeighborIndex = o.index
	cfg.StopOnFirstDeath = o.deaths
	cfg.Faults = o.faults.config()
	cfg.Motion = o.motion.config()
	return cfg, cfg.Validate()
}

// runBatch runs the flag-driven setup as a Monte-Carlo batch: trial t
// draws its network and endpoints from the seed derived from
// (-seed, t), so the aggregate is independent of -concurrency and
// reproducible from -seed alone.
func runBatch(w io.Writer, o batchOpts) error {
	cfg, err := o.config()
	if err != nil {
		return err
	}

	type trialOut struct {
		Total     float64
		Ratio     float64
		Delivery  float64
		Completed bool
	}
	r := sweep.Runner{Concurrency: o.concurrency}
	if o.progress {
		r.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rtrial %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	outs, stats, err := sweep.Map(context.Background(), r, o.trials,
		func(_ context.Context, trial int) (trialOut, error) {
			trialSeed := int64(sweep.DeriveSeed(o.seed, uint64(trial)))
			net, err := buildNetwork(cfg, trialSeed, o.energyLo, o.energyHi)
			if err != nil {
				return trialOut{}, err
			}
			src, dst, err := net.PickFlowEndpoints(trialSeed)
			if err != nil {
				return trialOut{}, err
			}
			res, err := runOnce(cfg, net, src, dst, o.flowKB, o.faults)
			if err != nil {
				return trialOut{}, err
			}
			out := trialOut{
				Total:     res.TotalJoules(),
				Delivery:  res.Flows[0].DeliveryRatio,
				Completed: res.Flows[0].Completed,
			}
			if o.compare {
				base := cfg
				base.Mode = imobif.ModeNoMobility
				baseRes, err := runOnce(base, net, src, dst, o.flowKB, o.faults)
				if err != nil {
					return trialOut{}, err
				}
				if t := baseRes.TotalJoules(); t > 0 {
					out.Ratio = out.Total / t
				}
			}
			return out, nil
		})
	if err != nil {
		return err
	}

	var totalJ, ratioSum, deliverySum float64
	completed := 0
	for _, out := range outs {
		totalJ += out.Total
		ratioSum += out.Ratio
		deliverySum += out.Delivery
		if out.Completed {
			completed++
		}
	}
	n := float64(len(outs))
	fmt.Fprintf(w, "batch: %d trial(s), %d nodes, %.0f KB flow, strategy %s, mode %s, master seed %d\n",
		o.trials, o.nodes, o.flowKB, o.strategy, o.mode, o.seed)
	fmt.Fprintf(w, "completed: %d/%d  mean energy: %.2f J\n", completed, len(outs), totalJ/n)
	if o.faults.enabled() {
		fmt.Fprintf(w, "mean delivery ratio: %.3f\n", deliverySum/n)
	}
	if o.compare {
		fmt.Fprintf(w, "mean energy consumption ratio vs no-mobility: %.3f\n", ratioSum/n)
	}
	fmt.Fprintf(w, "sweep: %s\n", stats)
	return nil
}

// runScenario loads and executes a declarative JSON scenario.
func runScenario(w io.Writer, path string) error {
	s, err := scenario.LoadFile(path)
	if err != nil {
		return err
	}
	world, _, err := s.Build()
	if err != nil {
		return err
	}
	res, err := world.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario: %s (%s, %s)\n", s.Name, s.Strategy, s.Mode)
	for i, f := range res.Flows {
		fmt.Fprintf(w, "flow %d: completed=%v delivered %.0f KB in %.1f s, %d status change(s)\n",
			i, f.Completed, f.DeliveredBits/8/1024, float64(f.Duration), f.StatusFlips)
	}
	fmt.Fprintf(w, "energy: %s\n", res.Energy)
	if s.Faults != nil {
		fmt.Fprintf(w, "transport: %s\n", res.Transport)
		fmt.Fprintf(w, "channel loss rate: %.3f (%d/%d evaluations dropped)\n",
			res.Faults.LossRate(), res.Faults.Dropped, res.Faults.Evaluated)
	}
	if res.FirstDeath >= 0 {
		fmt.Fprintf(w, "first node death at %.1f s\n", float64(res.FirstDeath))
	}
	return nil
}

func run(w io.Writer, o runOpts) error {
	cfg, err := o.config()
	if err != nil {
		return err
	}

	net, err := buildNetwork(cfg, o.seed, o.energyLo, o.energyHi)
	if err != nil {
		return err
	}
	src, dst, err := net.PickFlowEndpoints(o.seed)
	if err != nil {
		return err
	}
	route, err := net.PlanGreedyRoute(src, dst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "network: %d nodes on %.0fx%.0f m, range %.0f m\n", o.nodes, o.field, o.field, o.rng)
	fmt.Fprintf(w, "flow: %d -> %d (%.0f KB over %d hops), strategy %s, mode %s\n",
		src, dst, o.flowKB, len(route)-1, o.strategy, o.mode)
	if o.faults.enabled() {
		fmt.Fprintf(w, "faults: loss %.2f, burst %.1f, %d crash(es), retry %d @ %.2f s, repair %v, seed %d\n",
			o.faults.loss, o.faults.burst, o.faults.crash,
			o.faults.retry, o.faults.retryTimeout, o.faults.repair, o.faults.seed)
	}

	opts, flush, err := o.observability()
	if err != nil {
		return err
	}
	res, err := runOnce(cfg, net, src, dst, o.flowKB, o.faults, opts...)
	if ferr := flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	if o.metricsOut != "" {
		if err := writeMetricsFile(o.metricsOut, res.Series); err != nil {
			return err
		}
	}
	report(w, res, o.faults.enabled())

	if o.compare {
		base := cfg
		base.Mode = imobif.ModeNoMobility
		baseRes, err := runOnce(base, net, src, dst, o.flowKB, o.faults)
		if err != nil {
			return err
		}
		if t := baseRes.TotalJoules(); t > 0 {
			fmt.Fprintf(w, "energy consumption ratio vs no-mobility: %.3f\n", res.TotalJoules()/t)
		}
		if o.deaths && baseRes.Flows[0].LifetimeSeconds > 0 {
			fmt.Fprintf(w, "system lifetime ratio vs no-mobility: %.3f\n",
				res.Flows[0].LifetimeSeconds/baseRes.Flows[0].LifetimeSeconds)
		}
	}
	return nil
}

func buildNetwork(cfg imobif.Config, seed int64, lo, hi float64) (*imobif.Network, error) {
	net, err := imobif.NewRandomNetwork(cfg, seed)
	if err != nil {
		return nil, err
	}
	if lo == 5000 && hi == 10000 {
		return net, nil // default energies already match
	}
	// Re-scale energies into [lo, hi].
	nodes := net.Nodes()
	for i := range nodes {
		frac := (nodes[i].Joules - 5000) / 5000
		nodes[i].Joules = lo + frac*(hi-lo)
	}
	return imobif.NewNetwork(nodes, cfg.Range)
}

// observability converts the -trace-out / -metrics-out flags into
// simulation options plus a flush function that finalizes the trace file.
// flush is safe to call even when no outputs are enabled.
func (o runOpts) observability() (opts []imobif.Option, flush func() error, err error) {
	flush = func() error { return nil }
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, nil, err
		}
		bw := bufio.NewWriter(f)
		opts = append(opts, imobif.WithTraceWriter(bw))
		flush = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if o.metricsOut != "" {
		opts = append(opts, imobif.WithTimeSeries(o.sampleInterval))
	}
	return opts, flush, nil
}

// writeMetricsFile writes the sampled time series to path as JSONL.
func writeMetricsFile(path string, series []imobif.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := imobif.WriteMetricsJSONL(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOnce(cfg imobif.Config, net *imobif.Network, src, dst int, flowKB float64, fo faultOpts, opts ...imobif.Option) (*imobif.Result, error) {
	sim, err := imobif.NewSimulation(cfg, net, opts...)
	if err != nil {
		return nil, err
	}
	if _, err := sim.AddFlow(src, dst, flowKB*1024); err != nil {
		return nil, err
	}
	if err := scheduleCrashes(sim, cfg.Nodes, src, dst, fo); err != nil {
		return nil, err
	}
	return sim.Run()
}

// scheduleCrashes picks fo.crash distinct relay nodes (never the flow
// endpoints) from a permutation seeded by -fault-seed and crashes them at
// 5 s intervals starting at t=5 s; each recovers 10 s after crashing.
// The choice depends only on the seed, so runs are reproducible.
func scheduleCrashes(sim *imobif.Simulation, nodes, src, dst int, fo faultOpts) error {
	if fo.crash <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(fo.seed))
	scheduled := 0
	at := 5.0
	for _, n := range rng.Perm(nodes) {
		if scheduled == fo.crash {
			break
		}
		if n == src || n == dst {
			continue
		}
		if err := sim.ScheduleNodeFailure(n, at); err != nil {
			return err
		}
		if err := sim.ScheduleNodeRecovery(n, at+10); err != nil {
			return err
		}
		scheduled++
		at += 5
	}
	if scheduled < fo.crash {
		return fmt.Errorf("cannot crash %d of %d nodes (flow endpoints are exempt)", fo.crash, nodes)
	}
	return nil
}

func report(w io.Writer, res *imobif.Result, faults bool) {
	f := res.Flows[0]
	fmt.Fprintf(w, "completed: %v  delivered: %.0f KB  duration: %.1f s\n",
		f.Completed, f.DeliveredBytes/1024, f.DurationSeconds)
	fmt.Fprintf(w, "energy: tx %.2f J + movement %.2f J + control %.2f J = %.2f J\n",
		res.TxJoules, res.MoveJoules, res.ControlJoules, res.TotalJoules())
	fmt.Fprintf(w, "notifications: %d  status flips: %d\n", f.Notifications, f.StatusFlips)
	if faults {
		c := res.Channel
		fmt.Fprintf(w, "channel: %d unicast / %d broadcast, %d delivered, drops: %d range, %d dead, %d fault\n",
			c.Unicasts, c.Broadcasts, c.Delivered, c.RangeDrops, c.DeadDrops, c.FaultDrops)
		tr := res.Transport
		fmt.Fprintf(w, "transport: %d retransmit(s), %d ack(s), %d dup-ack(s), %d dup-data, %d link-break(s), %d repair(s)\n",
			tr.Retransmits, tr.Acks, tr.DupAcks, tr.DupData, tr.LinkBreaks, tr.RouteRepairs)
		fmt.Fprintf(w, "delivery: %d/%d packets (ratio %.3f), channel loss rate %.3f\n",
			f.PacketsEmitted-f.PacketsDropped, f.PacketsEmitted, f.DeliveryRatio, res.ChannelLossRate)
	}
	if res.FirstDeathSeconds >= 0 {
		fmt.Fprintf(w, "first node death at %.1f s\n", res.FirstDeathSeconds)
	}
}
