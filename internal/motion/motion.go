// Package motion provides the ambient-mobility layer: pluggable models
// that move every node of the world continuously, independent of (and
// concurrently with) the paper's informed relay movement.
//
// The distinction from internal/mobility matters: that package implements
// the iMobif *strategies* — where should a relay go to optimize energy —
// while this package models the *environment* — how do nodes drift when
// nobody is optimizing anything (pedestrians, vehicles, group patrols).
// A simulation composes both: ambient motion perturbs the topology, and
// the informed strategies react to it.
//
// Determinism contract: a model draws exclusively from SplitMix64 streams
// derived from (Config.Seed, node id) — one independent stream per node
// (and per group, for group mobility) — so the variate sequence seen by
// node i is a pure function of the seed and i. A node that stops stepping
// (death) therefore never perturbs any other node's trajectory, and sweeps
// remain bit-identical at any worker count.
package motion

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Model names accepted by Config.Model.
const (
	// ModelStationary is the default: nodes never move ambiently.
	ModelStationary = "stationary"
	// ModelRandomWaypoint is the classic random-waypoint model: pick a
	// uniform waypoint, walk to it at a uniform speed, pause, repeat.
	ModelRandomWaypoint = "random-waypoint"
	// ModelGaussMarkov is the Gauss-Markov model: per-node velocity
	// follows a first-order autoregressive process with memory Alpha.
	ModelGaussMarkov = "gauss-markov"
	// ModelRPGM is reference-point group mobility: group reference
	// points do random waypoint; members orbit their reference point
	// within a cohesion radius.
	ModelRPGM = "rpgm"
)

// Config selects and parameterizes an ambient mobility model. A nil
// *Config (or ModelStationary) disables the layer entirely: the world
// arms no movement events and runs bit-identical to a build without the
// package.
type Config struct {
	// Model is one of the Model* constants. Empty means stationary.
	Model string
	// Seed seeds the model's SplitMix64 stream derivation.
	Seed int64
	// Interval is the simulated-time spacing of movement steps in
	// seconds. Zero or negative defaults to 1 s.
	Interval float64
	// FieldW and FieldH bound the deployment field in meters. Both must
	// be positive for any non-stationary model.
	FieldW, FieldH float64
	// SpeedLo and SpeedHi bound node speed draws in m/s. Zero values
	// default to [0.5, 1.5] (pedestrian range).
	SpeedLo, SpeedHi float64
	// Pause is the random-waypoint pause time at each waypoint, seconds.
	Pause float64
	// Alpha is the Gauss-Markov memory parameter in [0, 1): 0 is a pure
	// random walk, values near 1 give smooth, highly correlated motion.
	// Zero defaults to 0.75.
	Alpha float64
	// Groups is the RPGM group count. Zero defaults to 4.
	Groups int
	// Radius is the RPGM cohesion radius in meters: members are pulled
	// back whenever they drift farther than this from their group
	// reference point. Zero defaults to 50.
	Radius float64
	// ChargeBattery, when set, charges each node's battery for ambient
	// movement using the world's locomotion model E_M(d) = k·d — the
	// same accounting iMobif relay movement pays. Off by default: the
	// common reading of ambient motion is that a carrier (person,
	// vehicle) moves the node for free.
	ChargeBattery bool
}

// Enabled reports whether the configuration actually moves nodes: a nil
// config, an empty model name, and ModelStationary all report false, and
// the world must arm no movement events for them.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.Model != "" && c.Model != ModelStationary
}

// StepInterval returns the effective movement-event spacing in seconds,
// applying the 1 s default.
func (c *Config) StepInterval() float64 {
	if c == nil || c.Interval <= 0 {
		return 1
	}
	return c.Interval
}

// Validate checks the configuration. A nil config is valid (the layer is
// absent).
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	switch c.Model {
	case "", ModelStationary, ModelRandomWaypoint, ModelGaussMarkov, ModelRPGM:
	default:
		return fmt.Errorf("motion: unknown model %q", c.Model)
	}
	if !c.Enabled() {
		return nil
	}
	if c.FieldW <= 0 || c.FieldH <= 0 {
		return fmt.Errorf("motion: model %q needs a positive field, got %gx%g", c.Model, c.FieldW, c.FieldH)
	}
	lo, hi := c.speeds()
	if lo < 0 || hi < lo {
		return fmt.Errorf("motion: invalid speed range [%g, %g]", c.SpeedLo, c.SpeedHi)
	}
	if c.Pause < 0 {
		return fmt.Errorf("motion: negative pause %g", c.Pause)
	}
	if c.Alpha < 0 || c.Alpha >= 1 {
		return fmt.Errorf("motion: alpha %g outside [0, 1)", c.Alpha)
	}
	if c.Groups < 0 {
		return fmt.Errorf("motion: negative group count %d", c.Groups)
	}
	if c.Radius < 0 {
		return fmt.Errorf("motion: negative cohesion radius %g", c.Radius)
	}
	return nil
}

// speeds returns the effective [lo, hi] speed range with defaults applied.
func (c *Config) speeds() (lo, hi float64) {
	lo, hi = c.SpeedLo, c.SpeedHi
	if lo == 0 && hi == 0 {
		lo, hi = 0.5, 1.5
	}
	return lo, hi
}

// alpha returns the effective Gauss-Markov memory with the default applied.
func (c *Config) alpha() float64 {
	if c.Alpha == 0 {
		return 0.75
	}
	return c.Alpha
}

// groups returns the effective RPGM group count with the default applied.
func (c *Config) groups() int {
	if c.Groups == 0 {
		return 4
	}
	return c.Groups
}

// radius returns the effective RPGM cohesion radius with the default applied.
func (c *Config) radius() float64 {
	if c.Radius == 0 {
		return 50
	}
	return c.Radius
}

// Model is one ambient mobility model instance, owning all per-node state.
// Implementations are not safe for concurrent use; the single-threaded
// world calls them from inside its event loop.
type Model interface {
	// Name returns the model's Config.Model name.
	Name() string
	// Init installs the initial node positions. len(positions) fixes the
	// node count; ids passed to Step index into it.
	Init(positions []geom.Point)
	// Step advances node id by dt seconds from its current position cur
	// and returns the new position, already clamped to the field. A model
	// must draw randomness only from the stepped node's own stream (or
	// its group's), so that the set and order of *other* nodes' steps
	// never changes this node's trajectory.
	Step(id int, cur geom.Point, dt float64) geom.Point
}

// New builds the configured model, or nil when the configuration is
// disabled (nil, empty, or stationary). It assumes a validated config.
func New(c *Config) Model {
	if !c.Enabled() {
		return nil
	}
	lo, hi := c.speeds()
	switch c.Model {
	case ModelRandomWaypoint:
		return &RandomWaypoint{
			seed: c.Seed, w: c.FieldW, h: c.FieldH,
			lo: lo, hi: hi, pause: c.Pause,
		}
	case ModelGaussMarkov:
		return &GaussMarkov{
			seed: c.Seed, w: c.FieldW, h: c.FieldH,
			mean: (lo + hi) / 2, alpha: c.alpha(),
		}
	case ModelRPGM:
		return &RPGM{
			seed: c.Seed, w: c.FieldW, h: c.FieldH,
			lo: lo, hi: hi, pause: c.Pause,
			groups: c.groups(), radius: c.radius(),
		}
	}
	return nil
}

// nodeSource returns the independent variate stream for node id under the
// given master seed. Node streams derive from sub-master 0.
func nodeSource(seed int64, id int) *stats.Source {
	master := int64(sweep.DeriveSeed(seed, 0))
	return stats.NewSourceOf(sweep.NewStream(master, uint64(id)))
}

// groupSource returns the independent variate stream for RPGM group g
// under the given master seed. Group streams derive from sub-master 1, so
// they never collide with node streams.
func groupSource(seed int64, g int) *stats.Source {
	master := int64(sweep.DeriveSeed(seed, 1))
	return stats.NewSourceOf(sweep.NewStream(master, uint64(g)))
}

// Stationary is the explicit no-op model. The world never instantiates it
// (New returns nil so no events are armed at all); it exists so external
// code can hold a Model value for the stationary case, e.g. in tests and
// model registries.
type Stationary struct{}

// Name implements Model.
func (Stationary) Name() string { return ModelStationary }

// Init implements Model.
func (Stationary) Init([]geom.Point) {}

// Step implements Model: the node stays where it is.
func (Stationary) Step(_ int, cur geom.Point, _ float64) geom.Point { return cur }
