package energy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestTxModelPower(t *testing.T) {
	m := TxModel{A: 1e-7, B: 1e-10, Alpha: 2}
	tests := []struct {
		name string
		d    float64
		want float64
	}{
		{"zero distance", 0, 1e-7},
		{"negative distance", -5, 1e-7},
		{"100m", 100, 1e-7 + 1e-10*10000},
		{"200m", 200, 1e-7 + 1e-10*40000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Power(tt.d); math.Abs(got-tt.want) > 1e-18 {
				t.Errorf("Power(%v) = %v, want %v", tt.d, got, tt.want)
			}
		})
	}
}

func TestTxModelAlpha3(t *testing.T) {
	m := TxModel{A: 1e-7, B: 1e-10, Alpha: 3}
	want := 1e-7 + 1e-10*1e6
	if got := m.Power(100); math.Abs(got-want) > 1e-15 {
		t.Errorf("Power(100) = %v, want %v", got, want)
	}
}

func TestTxEnergy(t *testing.T) {
	m := DefaultTxModel()
	if got := m.TxEnergy(100, 0); got != 0 {
		t.Errorf("zero bits should cost 0, got %v", got)
	}
	if got := m.TxEnergy(100, -5); got != 0 {
		t.Errorf("negative bits should cost 0, got %v", got)
	}
	bits := 8000.0
	want := bits * m.Power(100)
	if got := m.TxEnergy(100, bits); math.Abs(got-want) > 1e-15 {
		t.Errorf("TxEnergy = %v, want %v", got, want)
	}
}

func TestTxEnergyMonotoneInDistance(t *testing.T) {
	m := DefaultTxModel()
	f := func(d1, d2 float64) bool {
		d1, d2 = math.Abs(d1), math.Abs(d2)
		if math.IsNaN(d1) || math.IsNaN(d2) || d1 > 1e6 || d2 > 1e6 {
			return true
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return m.TxEnergy(d1, 1000) <= m.TxEnergy(d2, 1000)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSustainableBits(t *testing.T) {
	m := TxModel{A: 1e-7, B: 1e-10, Alpha: 2}
	// At 100 m, power = 1.1e-7 J/bit. 1 J sustains ~9.09e6 bits.
	got := m.SustainableBits(1, 100)
	want := 1 / (1e-7 + 1e-6)
	_ = want
	p := m.Power(100)
	if math.Abs(got-1/p) > 1e-6 {
		t.Errorf("SustainableBits = %v, want %v", got, 1/p)
	}
	if got := m.SustainableBits(0, 100); got != 0 {
		t.Errorf("depleted battery sustains %v bits, want 0", got)
	}
	if got := m.SustainableBits(-1, 100); got != 0 {
		t.Errorf("negative residual sustains %v bits, want 0", got)
	}
}

func TestTxModelValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       TxModel
		wantErr bool
	}{
		{"default ok", DefaultTxModel(), false},
		{"negative A", TxModel{A: -1, B: 1e-10, Alpha: 2}, true},
		{"zero B", TxModel{A: 1e-7, B: 0, Alpha: 2}, true},
		{"alpha below 1", TxModel{A: 1e-7, B: 1e-10, Alpha: 0.5}, true},
		{"zero A ok", TxModel{A: 0, B: 1e-10, Alpha: 2}, false},
		{"NaN A", TxModel{A: math.NaN(), B: 1e-10, Alpha: 2}, true},
		{"infinite B", TxModel{A: 1e-7, B: math.Inf(1), Alpha: 2}, true},
		{"NaN alpha", TxModel{A: 1e-7, B: 1e-10, Alpha: math.NaN()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.m.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMobilityModel(t *testing.T) {
	m := MobilityModel{K: 0.5}
	if got := m.MoveEnergy(10); got != 5 {
		t.Errorf("MoveEnergy(10) = %v, want 5", got)
	}
	if got := m.MoveEnergy(0); got != 0 {
		t.Errorf("MoveEnergy(0) = %v, want 0", got)
	}
	if got := m.MoveEnergy(-3); got != 0 {
		t.Errorf("MoveEnergy(-3) = %v, want 0", got)
	}
	for _, k := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := (MobilityModel{K: k}).Validate(); err == nil {
			t.Errorf("K=%v should fail validation", k)
		}
	}
	if err := (MobilityModel{K: 0}).Validate(); err != nil {
		t.Errorf("zero K (free movement) should be valid, got %v", err)
	}
}

func TestBatteryDraw(t *testing.T) {
	b := NewBattery(10)
	if b.Initial() != 10 || b.Residual() != 10 {
		t.Fatalf("fresh battery %v/%v", b.Residual(), b.Initial())
	}
	if err := b.Draw(3, CatTx); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	if b.Residual() != 7 {
		t.Errorf("Residual = %v, want 7", b.Residual())
	}
	if err := b.Draw(2, CatMove); err != nil {
		t.Fatalf("Draw: %v", err)
	}
	if got := b.Spent(CatTx); got != 3 {
		t.Errorf("Spent(tx) = %v, want 3", got)
	}
	if got := b.Spent(CatMove); got != 2 {
		t.Errorf("Spent(move) = %v, want 2", got)
	}
	if got := b.TotalSpent(); got != 5 {
		t.Errorf("TotalSpent = %v, want 5", got)
	}
}

func TestBatteryDepletion(t *testing.T) {
	b := NewBattery(5)
	err := b.Draw(8, CatTx)
	if !errors.Is(err, ErrDepleted) {
		t.Fatalf("overdraw err = %v, want ErrDepleted", err)
	}
	if !b.Depleted() || b.Residual() != 0 {
		t.Errorf("battery after overdraw: residual=%v depleted=%v", b.Residual(), b.Depleted())
	}
	// Only the actually-available energy is recorded as spent.
	if got := b.Spent(CatTx); got != 5 {
		t.Errorf("Spent after overdraw = %v, want 5", got)
	}
}

func TestBatteryInvalidDraws(t *testing.T) {
	b := NewBattery(5)
	if err := b.Draw(-1, CatTx); err == nil {
		t.Error("negative draw should error")
	}
	if err := b.Draw(1, Category(0)); err == nil {
		t.Error("zero category should error")
	}
	if err := b.Draw(1, Category(99)); err == nil {
		t.Error("unknown category should error")
	}
	if b.Residual() != 5 {
		t.Errorf("failed draws must not consume energy, residual = %v", b.Residual())
	}
}

func TestBatteryNegativeCapacity(t *testing.T) {
	b := NewBattery(-3)
	if !b.Depleted() || b.Initial() != 0 {
		t.Errorf("negative capacity battery: %v/%v", b.Residual(), b.Initial())
	}
}

func TestBatteryConservationProperty(t *testing.T) {
	// Energy is conserved: initial = residual + total spent, under any
	// sequence of draws.
	f := func(draws []float64) bool {
		b := NewBattery(100)
		for i, d := range draws {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			cat := Category(i%3 + 1)
			_ = b.Draw(math.Abs(d), cat)
		}
		return math.Abs(b.Initial()-(b.Residual()+b.TotalSpent())) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCategoryString(t *testing.T) {
	tests := []struct {
		c    Category
		want string
	}{
		{CatTx, "tx"},
		{CatMove, "move"},
		{CatControl, "control"},
		{Category(42), "Category(42)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestCanDraw(t *testing.T) {
	b := NewBattery(5)
	if !b.CanDraw(5) {
		t.Error("CanDraw(5) on 5 J should be true")
	}
	if b.CanDraw(5.0001) {
		t.Error("CanDraw(5.0001) on 5 J should be false")
	}
}

func TestPowerTable(t *testing.T) {
	m := DefaultTxModel()
	pt, err := NewPowerTable(m, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The table rounds distance up, so Lookup(d) >= Power(d) always.
	for _, d := range []float64{1, 10, 55.5, 123.4, 200} {
		got := pt.Lookup(d)
		if got < m.Power(d)-1e-18 {
			t.Errorf("Lookup(%v) = %v < true power %v", d, got, m.Power(d))
		}
		// And never more than one table step's worth above.
		if got > m.Power(d+2)+1e-15 {
			t.Errorf("Lookup(%v) = %v too far above true power", d, got)
		}
	}
	// Beyond-range and non-positive lookups clamp.
	if got := pt.Lookup(1e9); got != pt.Lookup(200) {
		t.Errorf("beyond-range Lookup = %v, want clamp to max", got)
	}
	if got := pt.Lookup(0); got != pt.Lookup(1) {
		t.Errorf("zero-distance Lookup = %v, want first entry", got)
	}
	if got := pt.Lookup(-4); got != pt.Lookup(1) {
		t.Errorf("negative-distance Lookup = %v, want first entry", got)
	}
}

func TestPowerTableErrors(t *testing.T) {
	m := DefaultTxModel()
	for _, r := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := NewPowerTable(m, r, 10); err == nil {
			t.Errorf("range %v should error", r)
		}
	}
	if _, err := NewPowerTable(m, 100, 1); err == nil {
		t.Error("single entry should error")
	}
	if _, err := NewPowerTable(TxModel{A: -1, B: 1, Alpha: 2}, 100, 10); err == nil {
		t.Error("invalid model should error")
	}
}

func TestFitAlphaPrime(t *testing.T) {
	tests := []struct {
		name  string
		alpha float64
	}{
		{"alpha 2", 2},
		{"alpha 3", 3},
		{"alpha 4", 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := TxModel{A: 1e-7, B: 1e-10, Alpha: tt.alpha}
			pt, err := NewPowerTable(m, 200, 200)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pt.FitAlphaPrime()
			if err != nil {
				t.Fatal(err)
			}
			// The pure-power-law exponent absorbs the constant term, so
			// α′ is below the true α but must stay positive and within
			// reach of it.
			if got <= 0 || got > tt.alpha {
				t.Errorf("α′ = %v, want in (0, %v]", got, tt.alpha)
			}
		})
	}
}

func TestFitAlphaPrimeNoConstant(t *testing.T) {
	// With A=0 the model is exactly a power law; the fit must recover α.
	m := TxModel{A: 0, B: 1e-10, Alpha: 2.5}
	pt, err := NewPowerTable(m, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pt.FitAlphaPrime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-6 {
		t.Errorf("α′ = %v, want 2.5", got)
	}
}
