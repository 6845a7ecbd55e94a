package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simfleet"
)

// goldenRefs is the end-to-end benchmark's reference digest file; its
// "report/1" entry holds one digest per registry experiment on the
// default fleet at failure scale 0.02, seed 1.
var goldenRefs = filepath.Join("..", "..", "e2ebench", "refs.json")

// TestGoldenReport pins every experiment's rendered output on a small
// fixed fleet against the recorded reference digests, so a refactor
// cannot move a reported number unnoticed. The references were recorded
// at Workers 0 (GOMAXPROCS); this run is serial, so it also pins that
// no result depends on the worker count.
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("golden report runs every experiment")
	}
	data, err := os.ReadFile(goldenRefs)
	if err != nil {
		t.Fatal(err)
	}
	var refs map[string]map[string]string
	if err := json.Unmarshal(data, &refs); err != nil {
		t.Fatalf("%s: %v", goldenRefs, err)
	}
	want := refs["report/1"]
	if len(want) == 0 {
		t.Fatalf("%s: no report/1 digests", goldenRefs)
	}

	cfg := simfleet.DefaultConfig()
	cfg.FailureScale = 0.02
	cfg.Seed = 1
	cfg.Workers = 1
	c, err := NewContextWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range Registry() {
		out, err := r.Run(c)
		if err != nil {
			t.Errorf("%s: %v", r.Name, err)
			continue
		}
		ref, ok := want[r.Name]
		if !ok {
			t.Errorf("%s: no reference digest", r.Name)
			continue
		}
		if got := goldenDigest(out); got != ref {
			t.Errorf("%s: digest %s, want %s\n%s", r.Name, got, ref, out)
		}
	}
}

// goldenDigest is the first 64 bits of the SHA-256 of an experiment's
// rendered text, in hex, with Fig. 20's stage times and prediction
// latency and throughput zeroed: every other cell is determined by the
// fleet.
func goldenDigest(out fmt.Stringer) string {
	if f, ok := out.(*Fig20Result); ok {
		c := *f
		c.Stages = append([]StageOverhead(nil), f.Stages...)
		for i := range c.Stages {
			c.Stages[i].Time = 0
		}
		c.PredictLatency, c.PredictionsPerSecond = 0, 0
		out = &c
	}
	s := sha256.Sum256([]byte(out.String()))
	return hex.EncodeToString(s[:8])
}
