// Package imobif is a Go implementation of iMobif, the informed-mobility
// framework for energy optimization in wireless ad hoc networks
// (Tang & McKinley, ICDCS 2005).
//
// In networks whose nodes can physically move (robot swarms, vehicular
// relays, mobile sensors), relocating relay nodes can dramatically cut
// radio transmission energy — but locomotion itself costs energy. iMobif
// weighs the two online and in a fully distributed fashion: data-packet
// headers accumulate the expected performance of the current mobility
// strategy both with and without movement, the flow destination compares
// the aggregates, and it notifies the source to enable or disable mobility
// for the whole path.
//
// The package provides:
//
//   - a deterministic discrete-event simulator of a wireless ad hoc
//     network (unit-disk radio with power control, first-order energy
//     model P(d) = a + b·dᵅ, HELLO neighbor discovery, greedy geographic
//     routing);
//   - the iMobif framework itself (flow tables, header aggregation,
//     enable/disable feedback);
//   - two mobility strategies from the paper: minimize total transmission
//     energy (relays converge to evenly spaced positions on the
//     source–destination line) and maximize system lifetime (relay
//     spacing proportional to residual energy, Theorem 1);
//   - the paper's two baselines (no mobility, cost-unaware mobility) and
//     every experiment from its evaluation section (see EXPERIMENTS.md).
//
// # Quick start
//
//	cfg := imobif.DefaultConfig()
//	cfg.Strategy = imobif.StrategyMinEnergy
//	cfg.Mode = imobif.ModeInformed
//
//	net, err := imobif.NewRandomNetwork(cfg, 42)
//	if err != nil { ... }
//	sim, err := imobif.NewSimulation(cfg, net)
//	if err != nil { ... }
//	src, dst, err := net.PickFlowEndpoints(42)
//	if err != nil { ... }
//	if _, err := sim.AddFlow(src, dst, 1<<20); err != nil { ... }
//	res, err := sim.Run()
//	if err != nil { ... }
//	fmt.Printf("tx %.1f J, movement %.1f J\n", res.TxJoules, res.MoveJoules)
//
// The package-level Example is a runnable version of the above; the
// examples/ directory contains larger scenarios, and the
// cmd/imobif-figures binary regenerates every table and figure of the
// paper's evaluation.
//
// # Observability
//
// Runs are silent by default and observable on demand through options on
// NewSimulation: WithObserver attaches typed per-event callbacks,
// WithTimeSeries samples energy and delivery metrics over simulated time
// into Result.Series, and WithTraceWriter streams every event as JSON
// Lines. RunContext makes a run cancelable between events, returning a
// deterministic partial Result with the Canceled flag set. A zero-option
// simulation skips event dispatch entirely and is bit-identical to one
// built before the observability layer existed.
//
// # Determinism
//
// One seed reproduces any run byte-for-byte: all randomness flows from
// seeded sources, the event queue breaks timestamp ties FIFO, and
// Monte-Carlo sweeps derive per-trial seeds so results are identical at
// any worker count.
//
// # Scaling
//
// Neighbor queries are answered from neighbor rows built by one sweep
// over radio-range-sized cells (O(k) per node), so node counts far
// beyond the paper's 100 stay tractable; Config.NeighborIndex selects
// the all-pairs brute-force reference instead, which produces
// bit-identical results. A simulation runs on one serial event loop;
// HELLO rounds of 1024 or more senders split across min(GOMAXPROCS, 8)
// workers, with results identical at any worker count. See
// ARCHITECTURE.md for the package map and dataflow, and EXPERIMENTS.md
// for measured figures and scaling numbers.
package imobif
