package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
)

// The benchmark's inputs are refFleets simulated fleets per workload:
// seed n stands for fleet seed 1 + (n mod refFleets), so every run,
// whatever its seed, is checked against digests recorded for the fleets
// it ran on.
const refFleets = 10

func fleetSeedFor(seed int64) int64 {
	return 1 + (seed%refFleets+refFleets)%refFleets
}

// refsJSON maps "<workload>/<fleet seed>" to the expected digest of
// every checked operation on that fleet, at the full size.
//
//go:embed refs.json
var refsJSON []byte

type refTable map[string]map[string]string

func refKey(workload string, fleetSeed int64) string {
	return fmt.Sprintf("%s/%d", workload, fleetSeed)
}

func loadRefs() (refTable, error) {
	t := refTable{}
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return t, nil
}

// recordRefs merges one run's digests into the reference file at path.
func recordRefs(path string, seen refTable) error {
	t := refTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for k, v := range seen {
		t[k] = v
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// digester accumulates an output digest: the first 64 bits of its
// SHA-256, in hex.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(format string, args ...any) *digester {
	fmt.Fprintf(d.h, format, args...)
	return d
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}
