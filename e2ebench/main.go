// Command e2ebench is the repository's end-to-end benchmark. It drives
// the program through its public packages on three workloads — the
// paper report, the mfpagen → mfpatrain training path, and a fleet-ops
// serving session — checks every output against reference digests, and
// prints its metrics by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer ones and writes its spans to
// .bench_build/traces. Build and run it from the repository root with
//
//	bash e2ebench/run.sh --workload report --seed 1 --seconds 15 --trace 0
//
// See NOTES.md for the workloads, the metrics and how they relate.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: report, train or fleetops")
		seed    = flag.Int64("seed", 1, "input seed: iteration i runs on fleet seed 1 + ((seed+i) mod 10)")
		seconds = flag.Float64("seconds", 10, "measure whole iterations until their timed sections add up to this long")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		record  = flag.String("record-refs", "", "record this run's output digests into this reference file instead of checking them")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
		os.Exit(2)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fail("unknown workload %q (want report, train or fleetops)", *name)
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	o := &options{
		workload: w,
		size:     fullSize,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		traceDir: filepath.Join(".bench_build", "traces"),
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
		},
	}
	if *record == "" {
		refs, err := loadRefs()
		if err != nil {
			fail("%v", err)
		}
		o.refs = refs
	}

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := recordRefs(*record, res.Seen); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		for key, digests := range res.Seen {
			fmt.Printf("recorded %d digests for %s in %s\n", len(digests), key, *record)
		}
	}
	printResult(o, res)
}

// printResult writes the human-readable lines and then the result
// object as the last line.
func printResult(o *options, res *result) {
	prov, _ := json.Marshal(res.Provenance)
	fmt.Printf("provenance %s\n", prov)
	fmt.Printf("operations: %d attempted, %d failed (error_rate %.6f)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("wall_s %.6f s (median wall time of the untraced timed sections)\n", res.Wall)
	if o.workload.name == "fleetops" {
		fmt.Printf("serving: sweep_p50_ms %.4f, sweep_p90_ms %.4f, sweep_drive_days_per_s %.1f, retrain_s %.4f\n",
			res.Serving["sweep_p50_ms"], res.Serving["sweep_p90_ms"],
			res.Serving["sweep_drive_days_per_s"], res.Serving["retrain_s"])
	}
	if res.TracePath != "" {
		fmt.Printf("trace written to %s (core.sample_s, core.fit_s and core.eval_s are program-reported TrainReport stage times)\n", res.TracePath)
	}
	for _, d := range reported(o) {
		fmt.Printf("%-36s %14.6f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	fmt.Println(string(resultLine(o, res)))
}

// reported are the metrics a run prints: the end-to-end ones, or the
// per-layer ones when traced.
func reported(o *options) []metricDef {
	if o.trace {
		return perLayer
	}
	return endToEnd
}

// resultLine is the result object the benchmark prints last.
func resultLine(o *options, res *result) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metric)
	for _, d := range reported(o) {
		out[d.name] = metric{res.Metrics[d.name], d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	return line
}

// provenance is recorded with every result.
type provenance struct {
	Workload   string        `json:"workload"`
	Size       string        `json:"size"`
	Seed       int64         `json:"seed"`
	Fleets     []fleetCounts `json:"fleets"`
	Iterations int           `json:"iterations"`
	NumCPU     int           `json:"nproc"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	// Commit is the VCS revision stamped into the binary, or, when it
	// was built outside a repository, "tree:" and a digest of the
	// source files it was built from.
	Commit string `json:"commit"`
}

// fleetCounts gives the size of one fleet a run measured.
type fleetCounts struct {
	Seed int64 `json:"seed"`
	counts
}

func newProvenance(o *options, iterations int, fleets []fleetCounts) provenance {
	return provenance{
		Workload:   o.workload.name,
		Size:       o.size.name,
		Seed:       o.seed,
		Fleets:     fleets,
		Iterations: iterations,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
	}
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty, _ = strconv.ParseBool(s.Value)
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "tree:" + sourceDigest(".")
}

// sourceDigest hashes the Go sources and module files under root,
// skipping hidden directories such as the build output.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
