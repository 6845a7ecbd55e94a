// Command mfpabench measures the tree-ensemble training hot path of
// the histogram engine on the standard simulated fleet and on the
// package benchmark workloads, and records it in a JSON file (plus, when
// seed-commit numbers are given, the speedup over them). It runs each
// configuration through testing.Benchmark so the numbers are directly
// comparable to `go test -bench` output.
//
// Usage:
//
//	mfpabench [-out BENCH_train.json] [-scale 0.1] [-trees 50] [-rounds 60] [-benchtime 1s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbdt"
	"repro/internal/sampling"
	"repro/internal/simfleet"
)

// Result is one benchmark row of the output file.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Speedup compares the histogram engine against a baseline run.
type Speedup struct {
	Baseline   Result  `json:"baseline"`
	Histogram  Result  `json:"histogram"`
	TimeRatio  float64 `json:"time_ratio"`
	AllocRatio float64 `json:"alloc_ratio"`
}

// Report is the BENCH_train.json schema.
type Report struct {
	GoVersion   string             `json:"go_version"`
	GoMaxProcs  int                `json:"go_max_procs"`
	GeneratedAt string             `json:"generated_at"`
	Dataset     map[string]int     `json:"dataset"`
	Benchmarks  []Result           `json:"benchmarks"`
	Speedups    map[string]Speedup `json:"speedups,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfpabench: ")
	testing.Init() // register test.* flags so test.benchtime is settable

	var (
		out       = flag.String("out", "BENCH_train.json", "output JSON path")
		scale     = flag.Float64("scale", 0.1, "failure-count scale of the simulated fleet")
		trees     = flag.Int("trees", 50, "random forest ensemble size")
		rounds    = flag.Int("rounds", 60, "GBDT boosting rounds")
		benchtime = flag.Duration("benchtime", time.Second, "target time per benchmark")

		predictOut   = flag.String("predict-out", "BENCH_predict.json", "predict report path (empty disables the scoring benchmarks)")
		predictTrain = flag.Int("predict-train-rows", 50000, "training rows of the wide scoring workload")
		predictProbe = flag.Int("predict-probe-rows", 100000, "probe rows of the wide scoring workload")

		serveOut = flag.String("serve-out", "BENCH_serve.json", "serving report path (empty disables the incremental scoring benchmarks)")

		ioOut = flag.String("io-out", "BENCH_io.json", "telemetry container report path (empty disables the CSV-vs-MFPAC benchmarks)")

		// Pre-refactor BenchmarkForestTrain numbers, measured at the
		// commit before this engine landed (see Makefile bench target);
		// when given, the report records the old-vs-new speedup too.
		baseRef    = flag.String("baseline-ref", "", "commit the baseline numbers were measured at")
		baseNs     = flag.Float64("baseline-ns", 0, "seed-commit BenchmarkForestTrain ns/op")
		baseBytes  = flag.Int64("baseline-bytes", 0, "seed-commit BenchmarkForestTrain B/op")
		baseAllocs = flag.Int64("baseline-allocs", 0, "seed-commit BenchmarkForestTrain allocs/op")
	)
	flag.Parse()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		log.Fatal(err)
	}

	train, allSamples, err := standardTrainingSet(*scale)
	if err != nil {
		log.Fatal(err)
	}
	_, pos := ml.ClassCounts(train)
	fmt.Printf("standard simulated fleet training set: %d samples (%d positive), %d features\n",
		len(train), pos, len(train[0].X))

	benchmark := func(set []ml.Sample, name string, trainer ml.Trainer) Result {
		return benchFn(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trainer.Train(set); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rfHist := benchmark(train, "ForestTrain/fleet/histogram", &forest.Trainer{Trees: *trees, MaxDepth: 12, Seed: 1})
	gbHist := benchmark(train, "GBDTTrain/fleet/histogram", &gbdt.Trainer{Rounds: *rounds, MaxDepth: 4, Subsample: 0.8, Seed: 1})

	// The same workloads as the package benchmarks, so the recorded
	// numbers line up with `go test -bench BenchmarkForestTrain`.
	bfHist := benchmark(rings(2000, 1), "BenchmarkForestTrain/histogram", &forest.Trainer{Trees: 50, MaxDepth: 10, Seed: 1})
	bgHist := benchmark(moons(1000, 1), "BenchmarkGBDTTrain/histogram", &gbdt.Trainer{Rounds: 60, MaxDepth: 4, Subsample: 0.8, Seed: 1})

	report := Report{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Dataset: map[string]int{
			"samples":  len(train),
			"positive": pos,
			"features": len(train[0].X),
		},
		Benchmarks: []Result{rfHist, gbHist, bfHist, bgHist},
	}
	if *baseNs > 0 {
		name := "BenchmarkForestTrain/seed"
		if *baseRef != "" {
			name += "@" + *baseRef
		}
		seed := Result{Name: name, NsPerOp: *baseNs, BytesPerOp: *baseBytes, AllocsPerOp: *baseAllocs}
		report.Benchmarks = append(report.Benchmarks, seed)
		report.Speedups = map[string]Speedup{"benchmark_forest_train_vs_seed": ratio(seed, bfHist)}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	for key, s := range report.Speedups {
		fmt.Printf("%-30s %6.2fx faster, %6.2fx fewer allocations\n", key, s.TimeRatio, s.AllocRatio)
	}
	fmt.Printf("written to %s\n", *out)

	if *predictOut != "" {
		fmt.Printf("scoring benchmarks: wide %d train / %d probe rows, fleet %d train / %d probe rows\n",
			*predictTrain, *predictProbe, len(train), len(allSamples))
		runPredictBench(*predictOut, *predictTrain, *predictProbe, train, allSamples)
	}

	if *serveOut != "" {
		runServeBench(*serveOut, *scale)
	}

	if *ioOut != "" {
		runIOBench(*ioOut, *scale)
	}
}

// benchFn runs an arbitrary benchmark body through testing.Benchmark.
func benchFn(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	res := Result{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	fmt.Printf("  %-34s %12.0f ns/op %12d B/op %9d allocs/op\n",
		name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	return res
}

func ratio(base, hist Result) Speedup {
	s := Speedup{Baseline: base, Histogram: hist}
	if hist.NsPerOp > 0 {
		s.TimeRatio = base.NsPerOp / hist.NsPerOp
	}
	if hist.AllocsPerOp > 0 {
		s.AllocRatio = float64(base.AllocsPerOp) / float64(hist.AllocsPerOp)
	}
	return s
}

// rings mirrors the forest package's BenchmarkForestTrain dataset: two
// concentric ring-ish classes, non-linear but solvable by axis-aligned
// ensembles.
func rings(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		x := r.Float64()*4 - 2
		y := r.Float64()*4 - 2
		label := 0
		if x*x+y*y < 1.2 {
			label = 1
		}
		out = append(out, ml.Sample{X: []float64{x, y}, Y: label})
	}
	return out
}

// moons mirrors the gbdt package's BenchmarkGBDTTrain dataset.
func moons(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		t := r.Float64() * math.Pi
		noise := func() float64 { return 0.15 * r.NormFloat64() }
		out = append(out,
			ml.Sample{X: []float64{math.Cos(t) + noise(), math.Sin(t) + noise()}, Y: 0},
			ml.Sample{X: []float64{1 - math.Cos(t) + noise(), 0.5 - math.Sin(t) + noise()}, Y: 1},
		)
	}
	return out
}

// standardTrainingSet reproduces mfpatrain's default data path: the
// standard simulated fleet, vendor I, SFWB features, time-based
// segmentation, 3:1 under-sampling — the training set the grid-search
// and feature-selection experiments run on. It also returns the full
// (pre-split, pre-undersampling) sample set, which is the fleet-wide
// scoring workload of the predict benchmarks.
func standardTrainingSet(scale float64) (train, all []ml.Sample, err error) {
	fleetCfg := simfleet.DefaultConfig()
	fleetCfg.Seed = 1
	fleetCfg.FailureScale = scale
	fleet, err := simfleet.SimulateFrame(fleetCfg)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.PrepareFrame(fleet.Frame, fleet.Tickets, core.DefaultConfig("I"))
	if err != nil {
		return nil, nil, err
	}
	set, err := p.BuildSampleSet()
	if err != nil {
		return nil, nil, err
	}
	split, _ := sampling.SplitFractionView(set.All(), p.Config.TrainFrac)
	us, err := sampling.UnderSampleView(split, p.Config.NegativeRatio, p.Config.Seed)
	if err != nil {
		return nil, nil, err
	}
	return us.Materialize(), set.All().Materialize(), nil
}
