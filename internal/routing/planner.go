// Package routing provides the routing substrate of paper §2: route
// planners that compute flow paths over a topology snapshot (greedy
// geographic routing — the planner the paper's evaluation uses — plus
// minimum-hop and minimum-energy planners for the relay-selection
// extension), per-node routing tables, and an AODV-lite on-demand distance
// vector protocol (the paper cites AODV as the routing-table manager whose
// HELLO messages carry the location/energy state).
package routing

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/topo"
)

// NodeID identifies a node.
type NodeID = int

// Planner computes a complete source-to-destination path over a topology
// snapshot. Planned paths are pinned into flow tables, matching the
// paper's model where the relay set is fixed and relays then move.
type Planner interface {
	// PlanRoute returns the node path from src to dst, inclusive.
	PlanRoute(g *topo.Graph, src, dst NodeID) ([]NodeID, error)
	// Name identifies the planner in experiment output.
	Name() string
}

// GreedyPlanner plans with greedy geographic forwarding: each hop is the
// neighbor closest to the destination. This is the paper's evaluation
// routing ("the network uses greedy routing").
type GreedyPlanner struct{}

var _ Planner = GreedyPlanner{}

// PlanRoute implements Planner.
func (GreedyPlanner) PlanRoute(g *topo.Graph, src, dst NodeID) ([]NodeID, error) {
	return g.GreedyPath(src, dst)
}

// Name implements Planner.
func (GreedyPlanner) Name() string { return "greedy" }

// MinHopPlanner plans minimum-hop-count paths (BFS).
type MinHopPlanner struct{}

var _ Planner = MinHopPlanner{}

// PlanRoute implements Planner.
func (MinHopPlanner) PlanRoute(g *topo.Graph, src, dst NodeID) ([]NodeID, error) {
	return g.HopPath(src, dst)
}

// Name implements Planner.
func (MinHopPlanner) Name() string { return "minhop" }

// MinEnergyPlanner plans paths minimizing the total transmission energy of
// one bit end-to-end under the given radio model — the relay-*selection*
// half of the paper's future-work extension (§5: "optimize both the
// selection and positions of the intermediate flow nodes").
type MinEnergyPlanner struct {
	Tx energy.TxModel
}

var _ Planner = MinEnergyPlanner{}

// PlanRoute implements Planner.
func (p MinEnergyPlanner) PlanRoute(g *topo.Graph, src, dst NodeID) ([]NodeID, error) {
	if err := p.Tx.Validate(); err != nil {
		return nil, fmt.Errorf("routing: min-energy planner: %w", err)
	}
	return g.MinCostPath(src, dst, func(i, j NodeID) float64 {
		return p.Tx.TxEnergy(g.Pos(i).Dist(g.Pos(j)), 1)
	})
}

// Name implements Planner.
func (p MinEnergyPlanner) Name() string { return "minenergy" }

// EnergyAware is implemented by planners whose route choice depends on
// residual node energies in addition to the topology snapshot. The
// simulator consults it at plan time — both initial flow setup and
// mid-run route repair — passing the current residual energy of every
// node in the graph's index space, so routes chase the live energy
// landscape rather than the initial one.
type EnergyAware interface {
	// PlanRouteEnergy is PlanRoute with per-node residual energies,
	// indexed like the graph's nodes.
	PlanRouteEnergy(g *topo.Graph, energies []float64, src, dst NodeID) ([]NodeID, error)
}

// MaxLifetimePlanner plans max-lifetime flow routes (after Lipiński's
// maximum-lifetime flow-routing formulation, in the Chang–Tassiulas
// cost-function family): the route minimizes the total *relative* energy
// drain Σ E_T(dᵢ, 1)/eᵢ^x over transmitters, steering flows away from
// nearly depleted nodes. With x = 0 — or when no energies are available
// through the EnergyAware path — it degenerates to minimum-transmission-
// energy routing.
type MaxLifetimePlanner struct {
	Tx energy.TxModel
	// Exponent is the residual-energy penalty exponent x (default 1).
	// Larger values avoid low-energy relays more aggressively.
	Exponent float64
}

var (
	_ Planner     = MaxLifetimePlanner{}
	_ EnergyAware = MaxLifetimePlanner{}
)

// PlanRoute implements Planner: the uniform-energy fallback, a pure
// minimum-transmission-energy route.
func (p MaxLifetimePlanner) PlanRoute(g *topo.Graph, src, dst NodeID) ([]NodeID, error) {
	return p.PlanRouteEnergy(g, nil, src, dst)
}

// PlanRouteEnergy implements EnergyAware. A nil energies slice means
// uniform batteries; depleted transmitters are penalized with a huge
// (but finite) weight so they are routed around whenever any
// alternative exists.
func (p MaxLifetimePlanner) PlanRouteEnergy(g *topo.Graph, energies []float64, src, dst NodeID) ([]NodeID, error) {
	if err := p.Tx.Validate(); err != nil {
		return nil, fmt.Errorf("routing: max-lifetime planner: %w", err)
	}
	x := p.Exponent
	if x == 0 {
		x = 1
	}
	if x < 0 {
		return nil, fmt.Errorf("routing: negative max-lifetime exponent %v", p.Exponent)
	}
	return g.MinCostPath(src, dst, func(i, j NodeID) float64 {
		w := p.Tx.TxEnergy(g.Pos(i).Dist(g.Pos(j)), 1)
		if energies == nil {
			return w
		}
		e := energies[i]
		if e <= 0 {
			// A dead transmitter cannot carry the flow; make it the
			// last resort without breaking Dijkstra's finite-weight
			// contract.
			return w * 1e30
		}
		return w / math.Pow(e, x)
	})
}

// Name implements Planner.
func (p MaxLifetimePlanner) Name() string { return "maxlifetime" }

// ValidateRoute checks that a path is well-formed over the graph: every
// node in the graph, no repeats, consecutive nodes in range, endpoints as
// requested.
func ValidateRoute(g *topo.Graph, path []NodeID, src, dst NodeID) error {
	if len(path) == 0 {
		return errors.New("routing: empty path")
	}
	if path[0] != src {
		return fmt.Errorf("routing: path starts at %d, want %d", path[0], src)
	}
	if path[len(path)-1] != dst {
		return fmt.Errorf("routing: path ends at %d, want %d", path[len(path)-1], dst)
	}
	seen := make(map[NodeID]bool, len(path))
	for i, id := range path {
		if id < 0 || id >= g.Len() {
			return fmt.Errorf("routing: path node %d not in the graph's [0,%d)", id, g.Len())
		}
		if seen[id] {
			return fmt.Errorf("routing: node %d repeats in path", id)
		}
		seen[id] = true
		if i > 0 && !g.Connected(path[i-1], id) {
			return fmt.Errorf("routing: hop %d -> %d out of range", path[i-1], id)
		}
	}
	return nil
}
