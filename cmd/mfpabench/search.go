package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/search"
	"repro/internal/sampling"
)

// ViewSpeedup compares the columnar SampleSet/view engine against the
// per-candidate slice-copy representation it replaced.
type ViewSpeedup struct {
	Slice      Result  `json:"slice"`
	View       Result  `json:"view"`
	TimeRatio  float64 `json:"time_ratio"`
	AllocRatio float64 `json:"alloc_ratio"`
}

// SearchReport is the BENCH_search.json schema.
type SearchReport struct {
	GoVersion   string                 `json:"go_version"`
	GoMaxProcs  int                    `json:"go_max_procs"`
	GeneratedAt string                 `json:"generated_at"`
	Dataset     map[string]int         `json:"dataset"`
	Benchmarks  []Result               `json:"benchmarks"`
	Speedups    map[string]ViewSpeedup `json:"speedups"`
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

func viewRatio(slice, view Result) ViewSpeedup {
	s := ViewSpeedup{Slice: slice, View: view}
	if view.NsPerOp > 0 {
		s.TimeRatio = slice.NsPerOp / view.NsPerOp
	}
	if view.AllocsPerOp > 0 {
		s.AllocRatio = float64(slice.AllocsPerOp) / float64(view.AllocsPerOp)
	}
	return s
}

// runSearchBench measures the bin-once columnar engine against the
// slice-copy representation on the search-shaped workloads the paper's
// methodology hammers: candidate sweeps that historically rebuilt
// samples per configuration, CV fold + resampling construction,
// hyper-parameter grid search, and sequential forward selection. The
// slice side reads the columnar build materialised as []ml.Sample;
// sample construction itself is timed on the columnar path only.
func runSearchBench(path string, p *core.Prepared) {
	cfg := p.Config
	fmt.Println("search benchmarks: SampleSet/view engine vs slice representation")

	buildView := benchFn("BuildSampleSet/columnar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.BuildSampleSet(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Shared inputs for the primitive comparisons.
	set, err := p.BuildSampleSet()
	if err != nil {
		log.Fatal(err)
	}
	samples := set.All().Materialize()
	trainS, testS := sampling.SplitFraction(samples, cfg.TrainFrac)
	usS, err := sampling.UnderSample(trainS, cfg.NegativeRatio, cfg.Seed)
	if err != nil {
		log.Fatal(err)
	}
	trainV, testV := sampling.SplitFractionView(set.All(), cfg.TrainFrac)
	usV, err := sampling.UnderSampleView(trainV, cfg.NegativeRatio, cfg.Seed)
	if err != nil {
		log.Fatal(err)
	}

	// Candidate sweep at pipeline granularity: the seed-representation
	// cost of evaluating one configuration was a full rebuild — sample
	// extraction, chronological split, under-sampling, and training
	// with a private quantile binning. The columnar engine builds and
	// bins once and hands every candidate a zero-copy view.
	depths := []int{4, 6, 8, 10, 12, 14}
	const sweepTrees = 20
	sweepSlice := benchFn("GridSweep/rebuild_per_candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range depths {
				cand, err := p.BuildSampleSet()
				if err != nil {
					b.Fatal(err)
				}
				tr, _ := sampling.SplitFraction(cand.All().Materialize(), cfg.TrainFrac)
				us, err := sampling.UnderSample(tr, cfg.NegativeRatio, cfg.Seed)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := (&forest.Trainer{Trees: sweepTrees, MaxDepth: d, Seed: 1}).Train(us); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	sweepView := benchFn("GridSweep/bin_once_views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cand, err := p.BuildSampleSet()
			if err != nil {
				b.Fatal(err)
			}
			tr, _ := sampling.SplitFractionView(cand.All(), cfg.TrainFrac)
			us, err := sampling.UnderSampleView(tr, cfg.NegativeRatio, cfg.Seed)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range depths {
				if _, err := (&forest.Trainer{Trees: sweepTrees, MaxDepth: d, Seed: 1}).TrainView(us); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// CV fold construction plus per-fold under-sampling — the shape
	// calibrateThreshold and every grid-search candidate consume.
	cvSlice := benchFn("CVFolds/slice_copies", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			folds, err := sampling.TimeSeriesCV(trainS, cfg.CVFolds)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range folds {
				if _, err := sampling.UnderSample(f.Train, cfg.NegativeRatio, cfg.Seed); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	cvView := benchFn("CVFolds/index_views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			folds, err := sampling.TimeSeriesCVView(trainV, cfg.CVFolds)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range folds {
				if _, err := sampling.UnderSampleView(f.Train, cfg.NegativeRatio, cfg.Seed); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// Hyper-parameter grid search over the training window (the
	// Section III-C(4) sweep): per-(combo, fold) private binning versus
	// one shared binned matrix. The set-wide matrix is warmed first —
	// the bin-once contract puts its construction before any sweep, and
	// the GridSweep pair above already charges the amortized build+bin
	// cost to the view engine.
	if _, err := (&forest.Trainer{Trees: 1, MaxDepth: 2, Seed: 1}).TrainView(usV); err != nil {
		log.Fatal(err)
	}
	factory := func(params map[string]float64) ml.Trainer {
		return &forest.Trainer{Trees: sweepTrees, MaxDepth: int(params["max_depth"]), Seed: 1}
	}
	grid := search.Grid{"max_depth": {6, 10, 14}}
	gsSlice := benchFn("GridSearch/slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := search.GridSearchWorkers(factory, grid, usS, cfg.CVFolds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	gsView := benchFn("GridSearch/views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := search.GridSearchSet(factory, grid, usV, cfg.CVFolds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Sequential forward selection: per-candidate masked copies of
	// train and validation versus column sub-views of the shared arena.
	names := p.Extractor.Names()
	sfsTrainer := &forest.Trainer{Trees: 10, MaxDepth: 8, Seed: 1, Parallelism: 1}
	sfsSlice := benchFn("ForwardSelect/slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.ForwardSelectWorkers(sfsTrainer, usS, testS, names, 3, 1e-4, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	sfsView := benchFn("ForwardSelect/views", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search.ForwardSelectSet(sfsTrainer, usV, testV, names, 3, 1e-4, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	report := SearchReport{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Dataset: map[string]int{
			"samples":        len(samples),
			"train":          usV.Len(),
			"features":       set.Width(),
			"cv_folds":       cfg.CVFolds,
			"sweep_configs":  len(depths),
			"grid_points":    len(grid["max_depth"]),
			"sfs_step_limit": 3,
		},
		Benchmarks: []Result{
			buildView, sweepSlice, sweepView,
			cvSlice, cvView, gsSlice, gsView, sfsSlice, sfsView,
		},
		Speedups: map[string]ViewSpeedup{
			"grid_sweep":  viewRatio(sweepSlice, sweepView),
			"cv_folds":    viewRatio(cvSlice, cvView),
			"grid_search": viewRatio(gsSlice, gsView),
			"sfs":         viewRatio(sfsSlice, sfsView),
		},
	}

	f, err := os.Create(path)
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
	for _, key := range []string{"grid_sweep", "cv_folds", "grid_search", "sfs"} {
		s := report.Speedups[key]
		fmt.Printf("%-30s %6.2fx faster, %6.2fx fewer allocations\n", key, s.TimeRatio, s.AllocRatio)
	}
	fmt.Printf("written to %s\n", path)
}
