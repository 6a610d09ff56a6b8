package scenario

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestStrategySpellingInvariant pins the dual-form contract: the legacy
// plain-string spelling and the structured object spelling of the same
// strategy canonicalize — and therefore fingerprint — identically, so
// service caches and sweep checkpoints keyed on legacy documents stay
// valid.
func TestStrategySpellingInvariant(t *testing.T) {
	legacy := strings.Replace(fpBase, `"name":"fp"`, `"name":"fp","strategy":"max-lifetime"`, 1)
	structured := strings.Replace(fpBase, `"name":"fp"`, `"name":"fp","strategy":{"name":"max-lifetime"}`, 1)
	fpLegacy, err := load(t, legacy).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpStructured, err := load(t, structured).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpLegacy != fpStructured {
		t.Errorf("spellings fingerprint differently: legacy %s vs structured %s", fpLegacy, fpStructured)
	}
	// The canonical form of a parameterless spec is the plain string, so
	// canonical bytes are byte-identical to pre-structured-form releases.
	canon, err := load(t, structured).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(canon), `"strategy":"max-lifetime"`) {
		t.Errorf("canonical form does not use the plain-string spelling:\n%s", canon)
	}
}

// TestStrategyParamsFingerprint pins that params are part of the
// scenario identity: the same name with different params hashes
// differently, and a parameterized spec survives the canonical
// round-trip.
func TestStrategyParamsFingerprint(t *testing.T) {
	withParams := strings.Replace(fpBase, `"name":"fp"`,
		`"name":"fp","strategy":{"name":"cluster-rotation","params":{"tiers":3}}`, 1)
	bare := strings.Replace(fpBase, `"name":"fp"`, `"name":"fp","strategy":"cluster-rotation"`, 1)
	fpParams, err := load(t, withParams).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpBareV, err := load(t, bare).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpParams == fpBareV {
		t.Error("params do not change the fingerprint")
	}
	canon, err := load(t, withParams).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Load(strings.NewReader(string(canon)))
	if err != nil {
		t.Fatalf("canonical form does not re-Load: %v\n%s", err, canon)
	}
	fp2, err := s2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fpParams {
		t.Errorf("canonical round-trip changes the fingerprint: %s vs %s", fp2, fpParams)
	}
}

// TestStrategyStructuredBuild materializes structured specs end-to-end:
// registered strategies with valid params build; unknown names, unknown
// params, and out-of-range values fail at Load (which compiles the
// strategy) with errors naming the problem, so they never reach Build.
func TestStrategyStructuredBuild(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantErr string
	}{
		{"rolling horizon", `{"name":"rolling-horizon","params":{"horizon":4,"discount":0.5,"samples":3}}`, ""},
		{"cluster rotation", `{"name":"cluster-rotation","params":{"tiers":2}}`, ""},
		{"max lifetime routing", `{"name":"max-lifetime-routing","params":{"exponent":2}}`, ""},
		{"legacy names", `"max-lifetime-exact"`, ""},
		{"unknown name", `{"name":"warp-drive"}`, "registered:"},
		{"unknown param", `{"name":"rolling-horizon","params":{"warp":9}}`, `unknown parameter "warp"`},
		{"bad value", `{"name":"cluster-rotation","params":{"tiers":0}}`, "tiers"},
		{"params on paramless", `{"name":"min-energy","params":{"x":1}}`, "strategy takes none"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := strings.Replace(fpBase, `"name":"fp"`, `"name":"fp","strategy":`+tc.spec, 1)
			if tc.wantErr != "" {
				_, err := Load(strings.NewReader(doc))
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Load error %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			if _, _, err := load(t, doc).Build(); err != nil {
				t.Fatalf("Build: %v", err)
			}
		})
	}
}

// TestStrategySpecJSON covers the unmarshaler's rejection paths directly:
// non-string non-object values and unknown object keys.
func TestStrategySpecJSON(t *testing.T) {
	for _, bad := range []string{`42`, `["min-energy"]`, `{"name":"x","extra":1}`, `{"name":7}`} {
		var sp StrategySpec
		if err := json.Unmarshal([]byte(bad), &sp); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted", bad)
		}
	}
	var sp StrategySpec
	if err := json.Unmarshal([]byte(`"stationary"`), &sp); err != nil || sp.Name != "stationary" {
		t.Errorf("plain string form = %+v, %v", sp, err)
	}
	if got := (StrategySpec{Name: "rolling-horizon", Params: map[string]float64{"horizon": 4, "discount": 0.5}}).String(); got != "rolling-horizon{discount=0.5 horizon=4}" {
		t.Errorf("String() = %q", got)
	}
}
