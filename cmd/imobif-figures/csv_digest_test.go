package main

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFigureCSVDigests pins the bytes of every CSV file the figure
// drivers write at -flows 2 -seed 1, so a change to how tables are built
// or rendered cannot silently move a plotted number or a header.
func TestFigureCSVDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure driver")
	}
	dir := t.TempDir()
	for _, fig := range []string{"all", "mobility", "strategies", "ablations"} {
		if err := run(fig, runOpts{flows: 2, seed: 1, csvDir: dir}); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
	}
	want := map[string]string{
		"fig5.csv":        "2d2e4c531eaa174a3391f56b5b617c4901b597dbed25c11d872d644a35ed27dd",
		"fig6a.csv":       "1716c15c9e7f63ac3a4376bb2455c1615b5cba0e3c42cdcec629a6bf74f8a9db",
		"fig6b.csv":       "65dd3d2a01b60f8663530aa2c648d905d08b7171a87d8c16124867b464ce968b",
		"fig6c.csv":       "ff79092dad5597d1235569828a8a1cc601b8d57037dd4fbf16fbd8cfd5b82a39",
		"fig6d.csv":       "aef3e93263655834ff6c2eae2936d78d7c1374814a4fb3e4516096686727f4c8",
		"fig6e.csv":       "9ffcaf2babdd03398b7bd98e164594ca7d577f18b91880b23606a09b782be3ea",
		"fig6f.csv":       "68cbea94890fa5797b900d4bd1b8b7d0f518c326098567d5913a7a360cb5e3b1",
		"fig7.csv":        "7359578a1dc8294e14fde12cec2e0deee9eb083e23efc3055f79805aa046699b",
		"fig8.csv":        "08de717f537df38bf4f485241bbc78ae3ae1081b516a12859b26ef95d168e5f3",
		"mobility.csv":    "d5b247f5e114604d73a6963996379e8a3bca045cb6808bd449643bd7316d4f13",
		"strategies.csv":  "a5216bc086d0d0e6d92495a40909771261b253d44fabb3ba23cb286e1808ce5f",
		"ablation_a1.csv": "c3c879c4c0431f94e259d5c26b43f32402220261359039cbb7b8b520245aed18",
	}
	for name, digest := range want {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		if got := sha256Hex(b); got != digest {
			t.Errorf("%s digest %s, want %s:\n%s", name, got, digest, b)
		}
	}

	// Scaling times wall clock, so only its header and deterministic
	// columns are pinned.
	if err := run("scaling", runOpts{seed: 1, nodes: 5000, csvDir: dir}); err != nil {
		t.Fatalf("-fig scaling: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "scaling.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var kept strings.Builder
	kept.WriteString(strings.Join(rows[0], ",") + "\n")
	for _, r := range rows[1:] {
		// nodes, procs, flows, completed, total_j; wall_s and
		// node_sim_per_wall vary between runs.
		kept.WriteString(strings.Join([]string{r[0], r[1], r[2], r[5], r[6]}, ",") + "\n")
	}
	const scalingDigest = "f41b5514b33d9d0c8d97384b093afd5bc3ea72ca56a2543c1a6d191230520950"
	if got := sha256Hex([]byte(kept.String())); got != scalingDigest {
		t.Errorf("scaling.csv deterministic columns digest %s, want %s:\n%s", got, scalingDigest, kept.String())
	}
}
