// Package energy implements the paper's energy models:
//
//   - the first-order radio transmission model P(d) = a + b·dᵅ, with
//     per-bit transmission energy E_T(d, l) = l · (a + b·dᵅ) (paper §4);
//   - the linear mobility cost model E_M(d) = k·d (paper §4);
//   - per-node batteries with categorized consumption ledgers;
//   - the power–distance table of Assumption 4 (a node can determine the
//     minimum transmission power to reach a given distance from historical
//     data) and the log-log regression that yields the α′ exponent used by
//     the maximize-lifetime strategy (paper §3.2).
package energy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// TxModel is the radio transmission power model P(d) = A + B·d^Alpha, in
// joules per bit as a function of distance in meters.
type TxModel struct {
	// A is the distance-independent electronics cost, J/bit.
	A float64
	// B is the amplifier coefficient, J·m^-Alpha/bit.
	B float64
	// Alpha is the path-loss exponent (2 for free space, up to 4 for
	// lossy environments). The paper evaluates 2 and 3.
	Alpha float64
}

// DefaultTxModel returns the reconstructed paper defaults:
// a = 1e-7 J/bit, b = 1e-10 J·m^-α/bit, α = 2 (see DESIGN.md §1).
func DefaultTxModel() TxModel {
	return TxModel{A: 1e-7, B: 1e-10, Alpha: 2}
}

// Validate reports whether the model parameters are physically meaningful
// (and finite: the comparisons are written so that NaN fails them).
func (m TxModel) Validate() error {
	switch {
	case !(m.A >= 0 && m.A <= math.MaxFloat64):
		return fmt.Errorf("energy: electronics cost A=%v is not finite and non-negative", m.A)
	case !(m.B > 0 && m.B <= math.MaxFloat64):
		return fmt.Errorf("energy: amplifier coefficient B=%v is not finite and positive", m.B)
	case !(m.Alpha >= 1 && m.Alpha <= math.MaxFloat64):
		return fmt.Errorf("energy: path-loss exponent Alpha=%v is not finite and at least 1", m.Alpha)
	default:
		return nil
	}
}

// Power returns the per-bit transmission power P(d) = A + B·dᵅ needed to
// reach distance d. Negative distances are treated as zero.
func (m TxModel) Power(d float64) float64 {
	if d <= 0 {
		return m.A
	}
	// Free-space fast path: math.Pow computes integer exponents by exact
	// repeated squaring, so d*d is bit-identical to Pow(d, 2) and an
	// order of magnitude cheaper on the per-packet path.
	if m.Alpha == 2 {
		return m.A + m.B*(d*d)
	}
	return m.A + m.B*math.Pow(d, m.Alpha)
}

// TxEnergy returns E_T(d, l): the minimum energy to transmit l bits across
// distance d. Non-positive bit counts cost nothing.
func (m TxModel) TxEnergy(d float64, bits float64) float64 {
	if bits <= 0 {
		return 0
	}
	return bits * m.Power(d)
}

// SustainableBits returns how many bits a node holding `residual` joules
// can transmit across distance d — the paper's "number of sustainable data
// bits" metric. A depleted battery sustains zero bits.
func (m TxModel) SustainableBits(residual, d float64) float64 {
	if residual <= 0 {
		return 0
	}
	p := m.Power(d)
	if p <= 0 {
		return math.Inf(1)
	}
	return residual / p
}

// MobilityModel is the node movement cost model E_M(d) = K·d: energy in
// joules to travel d meters. K depends on path conditions and node mass
// (paper §4).
type MobilityModel struct {
	// K is the locomotion cost in J/m. The paper sweeps 0.1, 0.5, 1.0.
	K float64
}

// Validate reports whether the mobility model is physically meaningful
// (and finite: NaN fails the comparison).
func (m MobilityModel) Validate() error {
	if !(m.K >= 0 && m.K <= math.MaxFloat64) {
		return fmt.Errorf("energy: mobility cost K=%v is not finite and non-negative", m.K)
	}
	return nil
}

// MoveEnergy returns E_M(d) = K·d. Negative distances are treated as zero.
func (m MobilityModel) MoveEnergy(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return m.K * d
}

// Category classifies battery draws for the consumption ledger.
type Category int

// Ledger categories. They start at one so the zero value is invalid and
// cannot be recorded accidentally.
const (
	// CatTx is data-packet transmission energy.
	CatTx Category = iota + 1
	// CatMove is controlled-mobility locomotion energy.
	CatMove
	// CatControl is control traffic (HELLO beacons, notifications); the
	// paper does not charge it, but ablation A4 does.
	CatControl
	// CatRx is reception energy (per-bit electronics at the receiver).
	// The paper's model is transmit-only; the RxPerBit radio option adds
	// this cost for model-fidelity studies.
	CatRx
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatTx:
		return "tx"
	case CatMove:
		return "move"
	case CatControl:
		return "control"
	case CatRx:
		return "rx"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// ErrDepleted is returned when a draw would take a battery below zero.
var ErrDepleted = errors.New("energy: battery depleted")

// Battery tracks a node's residual energy and a per-category consumption
// ledger. The zero value is a depleted battery.
type Battery struct {
	initial  float64
	residual float64
	spent    [5]float64 // indexed by Category
}

// NewBattery returns a battery holding `joules` of initial energy.
// Negative capacities are clamped to zero.
func NewBattery(joules float64) *Battery {
	if joules < 0 {
		joules = 0
	}
	return &Battery{initial: joules, residual: joules}
}

// Residual returns the remaining energy in joules.
func (b *Battery) Residual() float64 { return b.residual }

// Initial returns the initial capacity in joules.
func (b *Battery) Initial() float64 { return b.initial }

// Depleted reports whether the battery has run out.
func (b *Battery) Depleted() bool { return b.residual <= 0 }

// CanDraw reports whether the battery holds at least j joules.
func (b *Battery) CanDraw(j float64) bool { return b.residual >= j }

// Draw consumes j joules under the given category. If the battery holds
// less than j, it consumes what remains, records it, and returns
// ErrDepleted; the node has died mid-action, which is exactly how lifetime
// experiments detect the first node death.
func (b *Battery) Draw(j float64, cat Category) error {
	if j < 0 {
		return fmt.Errorf("energy: negative draw %v", j)
	}
	if int(cat) < 1 || int(cat) >= len(b.spent) {
		return fmt.Errorf("energy: invalid category %d", cat)
	}
	if j > b.residual {
		b.spent[cat] += b.residual
		b.residual = 0
		return ErrDepleted
	}
	b.residual -= j
	b.spent[cat] += j
	return nil
}

// Spent returns the energy consumed under the given category.
func (b *Battery) Spent(cat Category) float64 {
	if int(cat) < 1 || int(cat) >= len(b.spent) {
		return 0
	}
	return b.spent[cat]
}

// TotalSpent returns the energy consumed across all categories.
func (b *Battery) TotalSpent() float64 {
	var sum float64
	for _, s := range b.spent[1:] {
		sum += s
	}
	return sum
}

// PowerTable is the Assumption-4 substrate: a node's measured table of
// minimum transmission power versus distance, built from "historical data"
// by sampling the true radio model. Strategies consult the table (or a
// power-law fit of it) rather than the analytic model, mirroring what a
// deployed node could actually know.
type PowerTable struct {
	maxDist float64
	step    float64
	powers  []float64
}

// NewPowerTable samples model at `entries` evenly spaced distances in
// (0, maxDist] and returns the resulting table. It returns an error for a
// non-positive range, fewer than two entries, or an invalid model.
func NewPowerTable(model TxModel, maxDist float64, entries int) (*PowerTable, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if !(maxDist > 0 && maxDist <= math.MaxFloat64) {
		return nil, fmt.Errorf("energy: table range %v is not finite and positive", maxDist)
	}
	if entries < 2 {
		return nil, fmt.Errorf("energy: power table needs >= 2 entries, got %d", entries)
	}
	step := maxDist / float64(entries)
	powers := make([]float64, entries)
	for i := range powers {
		powers[i] = model.Power(step * float64(i+1))
	}
	return &PowerTable{maxDist: maxDist, step: step, powers: powers}, nil
}

// Lookup returns the tabulated minimum power to reach distance d, rounding
// d up to the next table entry (a node must reach at least that far).
// Distances beyond the table range return the last entry.
func (t *PowerTable) Lookup(d float64) float64 {
	if d <= 0 {
		return t.powers[0]
	}
	i := int(math.Ceil(d/t.step)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(t.powers) {
		i = len(t.powers) - 1
	}
	return t.powers[i]
}

// FitAlphaPrime regresses the table's power-distance samples against a pure
// power law P ≈ c·d^α′ and returns α′. This is the regression the paper
// prescribes for the maximize-lifetime position formula (§3.2).
//
// The fit uses the upper 85% of the distance range: at short distances the
// constant electronics term A dominates P(d) and flattens the log-log
// slope, which would bias α′ far below the amplifier exponent and push the
// Theorem 1 split toward degenerate extremes. Relay hops live in the upper
// range, so that is where the approximation must be faithful. Use
// FitAlphaPrimeRange for explicit control.
func (t *PowerTable) FitAlphaPrime() (float64, error) {
	return t.FitAlphaPrimeRange(0.15*t.maxDist, t.maxDist)
}

// FitAlphaPrimeRange fits α′ using only table entries with distance in
// [lo, hi].
func (t *PowerTable) FitAlphaPrimeRange(lo, hi float64) (float64, error) {
	var xs, ys []float64
	for i := range t.powers {
		d := t.step * float64(i+1)
		if d < lo || d > hi {
			continue
		}
		xs = append(xs, d)
		ys = append(ys, t.powers[i])
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("energy: α′ fit range [%v, %v] covers %d table entries, need >= 2", lo, hi, len(xs))
	}
	_, alpha, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		return 0, fmt.Errorf("energy: fitting α′: %w", err)
	}
	return alpha, nil
}
