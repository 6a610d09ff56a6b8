// Package topo provides node placement and connectivity-graph algorithms
// for the wireless ad hoc network substrate: random/grid/line deployment,
// unit-disk neighbor queries, reachability, shortest paths (hop count and
// energy-weighted), and the greedy geographic path construction used by
// the paper's evaluation.
package topo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/spatial"
	"repro/internal/stats"
)

// NodeID identifies a node by its index in the placement.
type NodeID = int

// ErrNoRoute is returned when no path exists between the requested nodes.
var ErrNoRoute = errors.New("topo: no route")

// ErrGreedyStuck is returned when greedy geographic forwarding reaches a
// local minimum: no neighbor is closer to the destination than the current
// node. The paper's evaluation regenerates such flows.
var ErrGreedyStuck = errors.New("topo: greedy forwarding stuck at local minimum")

// PlaceUniform places n nodes uniformly at random in the w×h field.
func PlaceUniform(src *stats.Source, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(src.Uniform(0, w), src.Uniform(0, h))
	}
	return pts
}

// PlaceGrid places n nodes on a near-square grid inside the w×h field,
// padded half a cell from the border.
func PlaceGrid(n int, w, h float64) []geom.Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	cw, ch := w/float64(cols), h/float64(rows)
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		pts = append(pts, geom.Pt(cw*(float64(c)+0.5), ch*(float64(r)+0.5)))
	}
	return pts
}

// PlaceLine places n nodes evenly along the segment from a to b, endpoints
// included (n >= 2) — the canonical relay-chain topology for convergence
// tests.
func PlaceLine(n int, a, b geom.Point) []geom.Point {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []geom.Point{a}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = a.Lerp(b, float64(i)/float64(n-1))
	}
	return pts
}

// PlaceZigzag places n nodes from a to b alternating a perpendicular
// offset, producing a deliberately bent relay chain whose straightening
// the mobility strategies should achieve.
func PlaceZigzag(n int, a, b geom.Point, amplitude float64) []geom.Point {
	pts := PlaceLine(n, a, b)
	if len(pts) < 3 {
		return pts
	}
	dir := b.Sub(a).Unit()
	normal := geom.Vec{X: -dir.Y, Y: dir.X}
	for i := 1; i < len(pts)-1; i++ {
		sign := 1.0
		if i%2 == 0 {
			sign = -1
		}
		pts[i] = pts[i].Add(normal.Scale(sign * amplitude))
	}
	return pts
}

// PlaceArc places n nodes from a to b with the interior nodes displaced to
// one side following a half-sine arc of the given height — a one-sided
// bent relay chain. Unlike PlaceZigzag's alternating bend, every node's
// strategy target here shortens its own next hop, which is the regime the
// paper's (deliberately myopic, per-node) cost-benefit estimate rewards.
func PlaceArc(n int, a, b geom.Point, height float64) []geom.Point {
	pts := PlaceLine(n, a, b)
	if len(pts) < 3 {
		return pts
	}
	dir := b.Sub(a).Unit()
	normal := geom.Vec{X: -dir.Y, Y: dir.X}
	for i := 1; i < len(pts)-1; i++ {
		off := height * math.Sin(math.Pi*float64(i)/float64(len(pts)-1))
		pts[i] = pts[i].Add(normal.Scale(off))
	}
	return pts
}

// Graph is a unit-disk connectivity view over a set of node positions.
// It is rebuilt (cheaply, O(n)) whenever positions change; the
// simulator's neighbor tables are maintained by the HELLO protocol
// instead, so Graph is used for initial route construction and analysis.
// Neighbor queries are served by a spatial index — a uniform grid with
// radio-range-sized cells by default, so traversals cost O(k) per node
// visited instead of O(n) — with the brute-force scan available via
// NewGraphIndexed as the reference implementation. A graph built by
// NewRowGraph instead holds every node's neighbors as precomputed rows.
type Graph struct {
	pos    []geom.Point
	radius float64
	idx    spatial.Index
	// off and adj, set by NewRowGraph, hold node i's neighbors in
	// adj[off[i]:off[i+1]]; idx is then nil.
	off, adj []NodeID
}

// NewGraph returns a unit-disk graph over the given positions with the
// given communication radius, backed by the default grid index. It
// returns an error for a non-positive radius.
func NewGraph(pos []geom.Point, radius float64) (*Graph, error) {
	return NewGraphIndexed(pos, radius, spatial.KindGrid)
}

// NewGraphIndexed is NewGraph with an explicit neighbor-index choice
// (spatial.KindGrid or spatial.KindBrute). Both produce identical graphs;
// the brute-force index exists for differential testing and tiny inputs.
func NewGraphIndexed(pos []geom.Point, radius float64, kind spatial.Kind) (*Graph, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("topo: non-positive radius %v", radius)
	}
	idx, err := spatial.FromPoints(kind, radius, pos)
	if err != nil {
		return nil, err
	}
	return &Graph{pos: pos, radius: radius, idx: idx}, nil
}

// NewRowGraph returns a unit-disk graph over pos whose neighbors are
// given as rows: node i's neighbors are adj[off[i]:off[i+1]], which must
// list, in ascending ID order, exactly the other nodes within radius of
// i (the rows netsim keeps for its HELLO rounds, filtered to the radio
// range). The graph keeps pos, off and adj without copying.
func NewRowGraph(pos []geom.Point, radius float64, off, adj []NodeID) (*Graph, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("topo: non-positive radius %v", radius)
	}
	if len(off) != len(pos)+1 || off[len(pos)] != len(adj) {
		return nil, fmt.Errorf("topo: %d row offsets over %d entries for %d nodes", len(off), len(adj), len(pos))
	}
	return &Graph{pos: pos, radius: radius, off: off, adj: adj}, nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.pos) }

// Pos returns the position of node i.
func (g *Graph) Pos(i NodeID) geom.Point { return g.pos[i] }

// Radius returns the communication radius.
func (g *Graph) Radius() float64 { return g.radius }

// Connected reports whether nodes i and j are within radio range. A node
// is not its own neighbor.
func (g *Graph) Connected(i, j NodeID) bool {
	if i == j {
		return false
	}
	return g.pos[i].Dist2(g.pos[j]) <= g.radius*g.radius
}

// Neighbors returns the IDs of all nodes within range of i, in ascending
// ID order (deterministic). A row graph returns its row itself, capped so
// an append cannot write into the next row; callers must not modify it.
func (g *Graph) Neighbors(i NodeID) []NodeID {
	if g.idx == nil {
		return g.adj[g.off[i]:g.off[i+1]:g.off[i+1]]
	}
	return g.AppendNeighbors(nil, i)
}

// AppendNeighbors appends i's neighbors (ascending ID order, excluding i
// itself) to dst and returns the extended slice. Traversals reuse one
// buffer through this to stay allocation-light on large graphs.
func (g *Graph) AppendNeighbors(dst []NodeID, i NodeID) []NodeID {
	if g.idx == nil {
		return append(dst, g.Neighbors(i)...)
	}
	start := len(dst)
	dst = g.idx.AppendInRange(dst, g.pos[i], g.radius)
	// Drop i itself (a node is not its own neighbor), preserving order.
	out := dst[:start]
	for _, id := range dst[start:] {
		if id != i {
			out = append(out, id)
		}
	}
	return out
}

// AvgDegree returns the mean neighbor count over all nodes.
func (g *Graph) AvgDegree() float64 {
	if len(g.pos) == 0 {
		return 0
	}
	total := 0
	var buf []NodeID
	for i := range g.pos {
		buf = g.AppendNeighbors(buf[:0], i)
		total += len(buf)
	}
	return float64(total) / float64(len(g.pos))
}

// IsConnected reports whether the whole graph is a single connected
// component. The empty graph is connected.
func (g *Graph) IsConnected() bool {
	if len(g.pos) == 0 {
		return true
	}
	seen := make([]bool, len(g.pos))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	var buf []NodeID
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		buf = g.AppendNeighbors(buf[:0], cur)
		for _, nb := range buf {
			if !seen[nb] {
				seen[nb] = true
				count++
				stack = append(stack, nb)
			}
		}
	}
	return count == len(g.pos)
}

// HopPath returns a minimum-hop path from src to dst (inclusive) using
// BFS, or ErrNoRoute.
func (g *Graph) HopPath(src, dst NodeID) ([]NodeID, error) {
	if err := g.checkIDs(src, dst); err != nil {
		return nil, err
	}
	if src == dst {
		return []NodeID{src}, nil
	}
	prev := make([]NodeID, len(g.pos))
	for i := range prev {
		prev[i] = -1
	}
	queue := []NodeID{src}
	prev[src] = src
	var buf []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = g.AppendNeighbors(buf[:0], cur)
		for _, nb := range buf {
			if prev[nb] != -1 {
				continue
			}
			prev[nb] = cur
			if nb == dst {
				return buildPath(prev, src, dst), nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
}

// WeightFunc assigns a cost to the directed edge (i, j). It is consulted
// only for edges within radio range.
type WeightFunc func(i, j NodeID) float64

// MinCostPath returns the minimum-total-weight path from src to dst using
// Dijkstra's algorithm with the given edge weights, or ErrNoRoute.
// Negative edge weights are a programming error and return an error.
func (g *Graph) MinCostPath(src, dst NodeID, weight WeightFunc) ([]NodeID, error) {
	if err := g.checkIDs(src, dst); err != nil {
		return nil, err
	}
	const unvisited = -1
	n := len(g.pos)
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = unvisited
	}
	dist[src] = 0
	prev[src] = src
	var buf []NodeID
	for {
		// Linear scan extract-min: n is ~100 in the paper's experiments;
		// a heap would be noise.
		cur := unvisited
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				best, cur = dist[i], i
			}
		}
		if cur == unvisited {
			return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, src, dst)
		}
		if cur == dst {
			return buildPath(prev, src, dst), nil
		}
		done[cur] = true
		buf = g.AppendNeighbors(buf[:0], cur)
		for _, nb := range buf {
			if done[nb] {
				continue
			}
			w := weight(cur, nb)
			if w < 0 {
				return nil, fmt.Errorf("topo: negative edge weight %v on (%d,%d)", w, cur, nb)
			}
			if d := dist[cur] + w; d < dist[nb] {
				dist[nb] = d
				prev[nb] = cur
			}
		}
	}
}

// GreedyPath constructs the greedy geographic forwarding path from src to
// dst: each hop forwards to its neighbor closest to the destination
// (paper §4: "the network uses greedy routing"). It returns ErrGreedyStuck
// at a local minimum. Ties break toward the lower node ID (deterministic).
func (g *Graph) GreedyPath(src, dst NodeID) ([]NodeID, error) {
	if err := g.checkIDs(src, dst); err != nil {
		return nil, err
	}
	path := []NodeID{src}
	cur := src
	visited := map[NodeID]bool{src: true}
	for cur != dst {
		next, err := g.GreedyNext(cur, g.pos[dst])
		if err != nil {
			return nil, err
		}
		if visited[next] {
			// Cannot happen with strictly-decreasing distance, but guard
			// against degenerate coincident positions.
			return nil, fmt.Errorf("%w: loop at node %d", ErrGreedyStuck, next)
		}
		visited[next] = true
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// GreedyNext returns the neighbor of cur strictly closer to target than
// cur itself, choosing the closest such neighbor. It returns
// ErrGreedyStuck when no neighbor qualifies.
func (g *Graph) GreedyNext(cur NodeID, target geom.Point) (NodeID, error) {
	best := -1
	bestD := g.pos[cur].Dist2(target)
	for _, nb := range g.Neighbors(cur) {
		if d := g.pos[nb].Dist2(target); d < bestD {
			bestD = d
			best = nb
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("%w: at node %d", ErrGreedyStuck, cur)
	}
	return best, nil
}

func (g *Graph) checkIDs(ids ...NodeID) error {
	for _, id := range ids {
		if id < 0 || id >= len(g.pos) {
			return fmt.Errorf("topo: node id %d out of range [0,%d)", id, len(g.pos))
		}
	}
	return nil
}

func buildPath(prev []NodeID, src, dst NodeID) []NodeID {
	var rev []NodeID
	for cur := dst; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i, id := range rev {
		path[len(rev)-1-i] = id
	}
	return path
}

// PathLength returns the total Euclidean length of the path over the
// given positions.
func PathLength(pos []geom.Point, path []NodeID) float64 {
	var total float64
	for i := 1; i < len(path); i++ {
		total += pos[path[i-1]].Dist(pos[path[i]])
	}
	return total
}
