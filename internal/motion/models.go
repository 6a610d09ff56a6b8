package motion

import (
	"math"

	"repro/internal/geom"
	"repro/internal/stats"
)

// RandomWaypoint implements the classic random-waypoint model: each node
// independently picks a waypoint uniform on the field and a speed uniform
// in [lo, hi], walks to the waypoint in straight-line steps, pauses, and
// repeats. The well-known stationary-distribution artifact — node density
// biased toward the field center — is asserted by the package's
// statistical tests.
type RandomWaypoint struct {
	seed   int64
	w, h   float64
	lo, hi float64
	pause  float64
	nodes  []rwpState
}

type rwpState struct {
	src    *stats.Source
	target geom.Point
	speed  float64
	rest   float64 // pause seconds remaining at a reached waypoint
}

// Name implements Model.
func (m *RandomWaypoint) Name() string { return ModelRandomWaypoint }

// Init implements Model: each node draws its first waypoint and speed from
// its own derived stream.
func (m *RandomWaypoint) Init(positions []geom.Point) {
	m.nodes = make([]rwpState, len(positions))
	for i := range m.nodes {
		st := &m.nodes[i]
		st.src = nodeSource(m.seed, i)
		st.retarget(m)
	}
}

func (st *rwpState) retarget(m *RandomWaypoint) {
	st.target = geom.Pt(st.src.Uniform(0, m.w), st.src.Uniform(0, m.h))
	st.speed = st.src.Uniform(m.lo, m.hi)
}

// Step implements Model.
func (m *RandomWaypoint) Step(id int, cur geom.Point, dt float64) geom.Point {
	st := &m.nodes[id]
	if st.rest > 0 {
		st.rest -= dt
		if st.rest < 0 {
			st.rest = 0
		}
		return cur
	}
	next, _ := geom.StepToward(cur, st.target, st.speed*dt)
	if next.Eq(st.target) {
		st.rest = m.pause
		st.retarget(m)
	}
	return next
}

// GaussMarkov implements the Gauss-Markov mobility model: each velocity
// component follows the first-order autoregressive process
//
//	v' = α·v + √(1−α²)·σ·N(0,1)
//
// with zero mean and stationary per-component deviation σ chosen so the
// expected speed (Rayleigh mean σ·√(π/2)) matches the configured mean
// speed. α near 1 yields smooth trajectories with strongly correlated
// headings; α = 0 degenerates to an uncorrelated random walk. Nodes
// reflect off the field boundary, flipping the offending velocity
// component.
type GaussMarkov struct {
	seed  int64
	w, h  float64
	mean  float64
	alpha float64
	nodes []gmState
}

type gmState struct {
	src *stats.Source
	v   geom.Vec
}

// Name implements Model.
func (m *GaussMarkov) Name() string { return ModelGaussMarkov }

// sigma is the stationary per-component velocity deviation that makes the
// expected 2-D speed equal the configured mean (Rayleigh mean = σ·√(π/2)).
func (m *GaussMarkov) sigma() float64 { return m.mean / 1.2533141373155003 }

// Init implements Model: each node starts at its stationary velocity
// distribution so the process has no warm-up transient.
func (m *GaussMarkov) Init(positions []geom.Point) {
	m.nodes = make([]gmState, len(positions))
	sigma := m.sigma()
	for i := range m.nodes {
		st := &m.nodes[i]
		st.src = nodeSource(m.seed, i)
		st.v = geom.Vec{X: sigma * st.src.Norm(), Y: sigma * st.src.Norm()}
	}
}

// Step implements Model.
func (m *GaussMarkov) Step(id int, cur geom.Point, dt float64) geom.Point {
	st := &m.nodes[id]
	a := m.alpha
	noise := m.sigma() * sqrt1m(a)
	st.v = geom.Vec{
		X: a*st.v.X + noise*st.src.Norm(),
		Y: a*st.v.Y + noise*st.src.Norm(),
	}
	next := cur.Add(st.v.Scale(dt))
	// Reflect off the field boundary, flipping the velocity component so
	// the process keeps its momentum pointing inward.
	if next.X < 0 {
		next.X, st.v.X = -next.X, -st.v.X
	} else if next.X > m.w {
		next.X, st.v.X = 2*m.w-next.X, -st.v.X
	}
	if next.Y < 0 {
		next.Y, st.v.Y = -next.Y, -st.v.Y
	} else if next.Y > m.h {
		next.Y, st.v.Y = 2*m.h-next.Y, -st.v.Y
	}
	return geom.ClampToRect(next, m.w, m.h)
}

// sqrt1m returns √(1−α²), the AR(1) noise scaling that preserves the
// stationary variance.
func sqrt1m(alpha float64) float64 {
	s := 1 - alpha*alpha
	if s <= 0 {
		return 0
	}
	return math.Sqrt(s)
}

// RPGM implements reference-point group mobility: each group owns a
// reference point that performs random waypoint (inset from the field
// edge by the cohesion radius), and each member holds a fixed offset from
// that reference point, stepping toward reference+offset at its own
// speed. This is the hard-cohesion variant: a member that ends a step
// farther than Radius from its reference point is pulled back onto the
// radius, so group diameter is bounded by construction — the property the
// package's cohesion test pins.
//
// Group reference points advance on group-derived streams, lazily, driven
// by the furthest-ahead member clock: the trajectory is a pure function
// of (seed, elapsed time) and survives members dying mid-run.
type RPGM struct {
	seed   int64
	w, h   float64
	lo, hi float64
	pause  float64
	groups int
	radius float64
	grp    []rpgmGroup
	nodes  []rpgmState
}

type rpgmGroup struct {
	src    *stats.Source
	ref    geom.Point
	target geom.Point
	speed  float64
	rest   float64
	clock  float64 // simulated seconds of reference-point advancement
}

type rpgmState struct {
	offset geom.Vec
	speed  float64
	clock  float64
}

// Name implements Model.
func (m *RPGM) Name() string { return ModelRPGM }

// group returns node id's group index (round-robin assignment).
func (m *RPGM) group(id int) int { return id % len(m.grp) }

// Init implements Model: group reference points start uniform on the
// inset field; members draw a fixed offset in a disk of 0.8·radius and a
// personal speed.
func (m *RPGM) Init(positions []geom.Point) {
	n := m.groups
	if n > len(positions) && len(positions) > 0 {
		n = len(positions)
	}
	if n < 1 {
		n = 1
	}
	m.grp = make([]rpgmGroup, n)
	for g := range m.grp {
		gr := &m.grp[g]
		gr.src = groupSource(m.seed, g)
		gr.ref = m.insetPoint(gr.src)
		gr.retarget(m)
	}
	m.nodes = make([]rpgmState, len(positions))
	for i := range m.nodes {
		st := &m.nodes[i]
		src := nodeSource(m.seed, i)
		// Uniform draw in a disk of 0.8·radius via rejection sampling.
		for {
			v := geom.Vec{
				X: src.Uniform(-0.8*m.radius, 0.8*m.radius),
				Y: src.Uniform(-0.8*m.radius, 0.8*m.radius),
			}
			if v.Len() <= 0.8*m.radius {
				st.offset = v
				break
			}
		}
		st.speed = src.Uniform(m.lo, m.hi)
	}
}

// insetPoint draws a point uniform on the field inset by the cohesion
// radius on every side (degenerating to the field center line when the
// field is narrower than 2·radius).
func (m *RPGM) insetPoint(src *stats.Source) geom.Point {
	return geom.Pt(insetUniform(src, m.w, m.radius), insetUniform(src, m.h, m.radius))
}

func insetUniform(src *stats.Source, extent, inset float64) float64 {
	lo, hi := inset, extent-inset
	if hi <= lo {
		src.Float64() // keep the draw count model-independent of geometry
		return extent / 2
	}
	return src.Uniform(lo, hi)
}

func (gr *rpgmGroup) retarget(m *RPGM) {
	gr.target = m.insetPoint(gr.src)
	gr.speed = gr.src.Uniform(m.lo, m.hi)
}

// advance moves the group reference point forward to time `to` on the
// group clock, executing its random-waypoint program.
func (m *RPGM) advance(gr *rpgmGroup, to float64) {
	for gr.clock < to {
		dt := to - gr.clock
		gr.clock = to
		if gr.rest > 0 {
			if gr.rest >= dt {
				gr.rest -= dt
				return
			}
			dt -= gr.rest
			gr.rest = 0
		}
		next, _ := geom.StepToward(gr.ref, gr.target, gr.speed*dt)
		gr.ref = next
		if next.Eq(gr.target) {
			gr.rest = m.pause
			gr.retarget(m)
		}
	}
}

// Step implements Model.
func (m *RPGM) Step(id int, cur geom.Point, dt float64) geom.Point {
	st := &m.nodes[id]
	st.clock += dt
	gr := &m.grp[m.group(id)]
	if st.clock > gr.clock {
		m.advance(gr, st.clock)
	}
	next, _ := geom.StepToward(cur, gr.ref.Add(st.offset), st.speed*dt)
	// Hard cohesion: never end a step outside the group radius.
	if d := next.Dist(gr.ref); d > m.radius {
		next = gr.ref.Add(next.Sub(gr.ref).Scale(m.radius / d))
	}
	return geom.ClampToRect(next, m.w, m.h)
}
