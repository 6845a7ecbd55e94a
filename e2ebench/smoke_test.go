package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkDefs reads the metric names and units BENCHMARK.json
// declares.
func benchmarkDefs(t *testing.T) (e2e, layer []metricDef) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	conv := func(ds []def) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{d.Name, d.Unit}
		}
		return out
	}
	return conv(b.EndToEnd), conv(b.PerLayer)
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := benchmarkDefs(t)
	for _, c := range []struct {
		name       string
		json, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.name, len(c.json), len(c.code))
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.json[i], c.code[i])
			}
		}
	}
}

// decodeLine parses a result line the way a consumer of the benchmark
// would.
func decodeLine(t *testing.T, line []byte) (failed int, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	var r struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if r.Attempted < 1 || r.Correct != (r.Failed == 0) {
		t.Fatalf("inconsistent result line %s", line)
	}
	return r.Failed, r.Metrics
}

// TestSmoke runs every workload at the tiny size: an untraced run that
// records reference digests, a traced run checked against them, and a
// run against one corrupted digest.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkDefs(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := &options{workload: w, size: tinySize, seed: 0, traceDir: t.TempDir(), log: t.Logf}
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			failed, ms := decodeLine(t, resultLine(o, res))
			if failed != 0 {
				t.Fatalf("%d operations failed while recording digests", failed)
			}
			for _, d := range e2e {
				m, ok := ms[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s: got %+v (present %t), want unit %s and a positive value", d.name, m, ok, d.unit)
				}
			}
			refs := res.Seen
			if len(refs) == 0 {
				t.Fatal("no output digests recorded")
			}

			o.refs, o.trace = refs, true
			if res, err = run(o); err != nil {
				t.Fatal(err)
			}
			failed, ms = decodeLine(t, resultLine(o, res))
			if failed != 0 {
				t.Fatalf("%d operations failed against digests recorded by the previous run", failed)
			}
			for _, d := range layer {
				if m, ok := ms[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("per-layer metric %s: got %+v (present %t), want unit %s", d.name, m, ok, d.unit)
				}
			}
			if v := ms["error_rate"].Value; v != 0 {
				t.Errorf("error_rate %v, want 0", v)
			}
			if _, err := os.Stat(res.TracePath); err != nil {
				t.Errorf("trace file: %v", err)
			}

			bad := refTable{}
			for fleet, digests := range refs {
				bad[fleet] = make(map[string]string, len(digests))
				for k, v := range digests {
					bad[fleet][k] = v
				}
			}
			fleet := refKey(w.name, fleetSeedAt(o, 0))
			keys := make([]string, 0, len(bad[fleet]))
			for k := range bad[fleet] {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			bad[fleet][keys[0]] = "0000000000000000"
			o.refs, o.trace = bad, false
			if res, err = run(o); err != nil {
				t.Fatal(err)
			}
			if failed, _ := decodeLine(t, resultLine(o, res)); failed != 1 {
				t.Errorf("corrupted digest of %s: %d operations failed, want 1", keys[0], failed)
			}
		})
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "a", Start: 3, End: 6},
		{ID: 3, Parent: 2, Name: "b", Start: 3, End: 5},
	}}
	want := map[string][2]float64{"root": {10, 5}, "a": {6, 4}, "b": {2, 2}}
	for _, lt := range tr.layers() {
		if w := want[lt.Name]; lt.Total != w[0] || lt.Self != w[1] {
			t.Errorf("%s: total %v self %v, want %v", lt.Name, lt.Total, lt.Self, w)
		}
	}
}
