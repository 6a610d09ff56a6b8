package netsim

import (
	"fmt"
	"math"

	"repro/internal/motion"
	"repro/internal/sim"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/topo"
)

// ScaleTargetDegree is the expected radio-neighbor count NewScaleWorld
// sizes its field for, keeping density constant across node counts.
const ScaleTargetDegree = 15

// NewScaleWorld builds the scale scene that BenchmarkWorld100k and the
// scaling experiment run: nodes placed uniformly (placement seed seed) at
// ScaleTargetDegree expected radio neighbors, ambient Gauss-Markov drift
// (motion seed 7), and up to flows short flows between endpoints a few
// hops apart, run until horizon. Endpoints come from a bounded BFS
// four hops out from rotating start nodes, so set-up stays linear in
// nodes instead of planning cross-field routes. It fails when fewer than
// half the flows are routable.
func NewScaleWorld(nodes, flows int, seed int64, horizon sim.Time) (*World, error) {
	cfg := DefaultConfig()
	r := cfg.Radio.Range
	side := math.Sqrt(float64(nodes) * math.Pi * r * r / ScaleTargetDegree)
	pts := topo.PlaceUniform(stats.NewSource(seed), nodes, side, side)
	energies := make([]float64, nodes)
	for i := range energies {
		energies[i] = 1e6
	}
	cfg.Mode = ModeNoMobility
	cfg.NeighborIndex = spatial.KindGrid
	cfg.Motion = &motion.Config{
		Model: motion.ModelGaussMarkov, Seed: 7,
		FieldW: side, FieldH: side,
		SpeedLo: 0.5, SpeedHi: 1.5,
	}
	cfg.Horizon = horizon
	w, err := NewWorld(cfg, pts, energies)
	if err != nil {
		return nil, err
	}
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	// Deterministic endpoints: BFS four hops out from a rotating start
	// node and pick the last node discovered — a genuine multi-hop flow
	// whose path length is independent of the field size.
	visited := make([]int, nodes)
	for i := range visited {
		visited[i] = -1
	}
	var queue []NodeID
	added := 0
	for start := 0; start < nodes && added < flows; start += nodes/flows + 1 {
		queue = queue[:0]
		queue = append(queue, start)
		visited[start] = start
		dst, depth := -1, 0
		frontierEnd := 1
		for i := 0; i < len(queue) && depth < 4; i++ {
			if i == frontierEnd {
				depth++
				frontierEnd = len(queue)
				if depth == 4 {
					break
				}
			}
			for _, nb := range g.Neighbors(queue[i]) {
				if visited[nb] == start {
					continue
				}
				visited[nb] = start
				queue = append(queue, nb)
				dst = nb
			}
		}
		if dst < 0 || dst == start {
			continue
		}
		if _, err := w.AddFlow(FlowSpec{Src: start, Dst: dst, LengthBits: 4 * cfg.PacketBits}); err != nil {
			continue // unroutable corner placement; density makes this rare
		}
		added++
	}
	if added < flows/2 {
		return nil, fmt.Errorf("netsim: only %d of %d flows routable at n=%d; placement density off", added, flows, nodes)
	}
	return w, nil
}
