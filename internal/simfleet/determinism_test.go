package simfleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ticket"
)

// TestSimulateWorkersIdentical pins the simulator's output bit for bit:
// a SHA-256 over the drive table, the Float64bits of every frame
// column, and the truth, stats and tickets must equal a recorded
// constant at every worker count. Every drive draws its trajectory
// from a private serial-seeded RNG into its own arena range and the
// merge replays the serial spec order, so scheduling cannot show.
func TestSimulateWorkersIdentical(t *testing.T) {
	drift := DriftConfig()
	drift.FailureScale = 0.01
	drift.HealthyPerFaulty = 3
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"tiny", TinyConfig(), "322ac1beca6acf9dd0cf50c6b77ba3f03e224db9d5cddf729c67227afbc9edf9"},
		{"drift", drift, "fffa17cb370147934d27e2e4e37d0658fb27de980d8a765c5c31d7c45bde6917"},
	} {
		for _, w := range []int{1, 0, 3} {
			cfg := c.cfg
			cfg.Workers = w
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			if got := fleetDigest(t, res.Data, res.Truth, res.Stats, res.Tickets); got != c.want {
				t.Errorf("%s workers=%d: digest %s, want %s", c.name, w, got, c.want)
			}
		}
	}
}

// fleetDigest hashes everything a simulation produces.
func fleetDigest(t *testing.T, f *dataset.Frame, truth map[string]DriveTruth, stats []VendorStats, tickets *ticket.Store) string {
	t.Helper()
	h := sha256.New()
	for i := 0; i < f.Drives(); i++ {
		d := f.Drive(i)
		fmt.Fprintf(h, "drive %s|%s|%s|%d\n", d.SerialNumber, d.Vendor, d.Model, d.Rows())
		for r := int(d.Start); r < int(d.End); r++ {
			fmt.Fprintf(h, "%d|%v|%s|", f.Day(r), f.Interpolated(r), f.FirmwareAt(r))
			writeBits(h, f.SmartRow(r))
			writeBits(h, f.WRow(r))
			writeBits(h, f.BRow(r))
		}
	}
	sns := make([]string, 0, len(truth))
	for sn := range truth {
		sns = append(sns, sn)
	}
	sort.Strings(sns)
	for _, sn := range sns {
		tr := truth[sn]
		fmt.Fprintf(h, "truth %+v|%x\n", tr, math.Float64bits(tr.FailPowerOnHours))
	}
	for _, st := range stats {
		fmt.Fprintf(h, "stats %s|%d|%d|%d|%d\n", st.Name, st.Population, st.Failures, st.NominalFailures, st.SampledHealthy)
		for _, k := range sortedKeys(st.FailuresByFirmwareSeq) {
			fmt.Fprintf(h, "fail %d %d\n", k, st.FailuresByFirmwareSeq[k])
		}
		for _, k := range sortedKeys(st.PopulationByFirmwareSeq) {
			fmt.Fprintf(h, "pop %d %x\n", k, math.Float64bits(st.PopulationByFirmwareSeq[k]))
		}
	}
	if err := ticket.WriteCSV(h, tickets); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeBits(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
