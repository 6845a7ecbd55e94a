package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark scenario. setup simulates and stages the
// inputs (its cost is setup_s); the returned stage's run drives the
// timed section once.
type workload struct {
	name  string
	setup func(sz size, fleetSeed int64, it *iteration) (stage, error)
}

// stage is one iteration's staged inputs.
type stage interface {
	// run drives the timed section, reporting each operation to it.
	run(it *iteration)
	// counts reports the drives, records and rows the run consumes.
	counts() counts
}

type counts struct {
	Drives  int `json:"drives"`
	Records int `json:"records"`
	Rows    int `json:"rows"`
}

var workloads = []workload{
	{"report", setupReport},
	{"train", setupTrain},
	{"fleetops", setupFleetops},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// size fixes the inputs of every workload.
type size struct {
	name string
	// reportScale is the report fleet's failure scale.
	reportScale float64
	// trainScale is the training fleet's failure scale.
	trainScale float64
	// driftScale is the fleet-ops drift fleet's failure scale; the
	// session trains on firstDay and sweeps every day after it.
	driftScale float64
	firstDay   int
}

var (
	// fullSize is what the benchmark measures.
	fullSize = size{name: "full", reportScale: 0.02, trainScale: 0.2, driftScale: 0.15, firstDay: 100}
	// tinySize keeps the smoke test fast.
	tinySize = size{name: "tiny", reportScale: 0.01, trainScale: 0.02, driftScale: 0.08, firstDay: 100}
)

// options configures one benchmark run.
type options struct {
	workload workload
	size     size
	seed     int64
	seconds  float64
	trace    bool
	// refs are the expected digests; nil records digests instead of
	// checking them.
	refs refTable
	// traceDir receives the span file of a traced run.
	traceDir string
	// log receives a line per iteration and per failed operation.
	log func(format string, args ...any)
}

// iteration is one pass of setup plus timed section. Operations report
// their outcome through op; calls into layers go through call.
type iteration struct {
	tr     *tracer
	refs   map[string]string
	seen   map[string]string
	layer  map[string]float64
	ops    int
	failed int
	log    func(format string, args ...any)
	// paused is time spent checking outputs inside the timed section;
	// it is taken out of wall time.
	paused  time.Duration
	sweepMS []float64
}

// call runs fn as one call into a layer: a span when tracing, its
// seconds summed into the per-layer value name+"_s", and, when tracing,
// its allocated megabytes into name+"_alloc_mb".
func (it *iteration) call(name string, fn func()) (d time.Duration, allocMB float64) {
	id := it.tr.begin(name)
	var a0 uint64
	if it.tr != nil {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	fn()
	d = time.Since(t0)
	if it.tr != nil {
		allocMB = mb(heapAllocs() - a0)
		it.layer[name+"_alloc_mb"] += allocMB
	}
	it.tr.end(id)
	it.layer[name+"_s"] += d.Seconds()
	return d, allocMB
}

// untimed runs an output check inside the timed section without
// counting it as wall time.
func (it *iteration) untimed(fn func()) {
	t0 := time.Now()
	fn()
	it.paused += time.Since(t0)
}

// op records one operation: it fails on err, or when got differs from
// the reference digest of that name. In recording mode the digest is
// kept instead.
func (it *iteration) op(name, got string, err error) {
	it.ops++
	switch {
	case err != nil:
		it.fail(name, err.Error())
	case it.refs == nil:
		it.seen[name] = got
	default:
		it.seen[name] = got
		if want, ok := it.refs[name]; !ok {
			it.fail(name, "no reference digest")
		} else if want != got {
			it.fail(name, fmt.Sprintf("digest %s, reference %s", got, want))
		}
	}
}

func (it *iteration) fail(name, why string) {
	it.failed++
	if it.log != nil {
		it.log("operation %s failed: %s", name, why)
	}
}

// iterResult is what one iteration measured.
type iterResult struct {
	fleetSeed int64
	traced    bool
	setupWall time.Duration
	setupCPU  time.Duration
	wall      time.Duration
	cpu       time.Duration
	gcCycles  uint32
	gcPauseMS float64
	// peakRSS is the iteration's own peak resident set in MB.
	peakRSS float64
	layer   map[string]float64
	sweepMS []float64
	ops     int
	failed  int
	seen    map[string]string
	counts  counts
}

func runIteration(o *options, tr *tracer, fleetSeed int64) (iterResult, error) {
	it := &iteration{
		tr:    tr,
		seen:  make(map[string]string),
		layer: make(map[string]float64),
		log:   o.log,
	}
	if o.refs != nil {
		// A fleet without references fails every checked operation.
		it.refs = o.refs[refKey(o.workload.name, fleetSeed)]
		if it.refs == nil {
			it.refs = map[string]string{}
		}
	}
	root := tr.begin("workload." + o.workload.name)
	defer tr.end(root)
	resetPeakRSS()

	sid := tr.begin("setup")
	t0, c0 := time.Now(), cpuTime()
	st, err := o.workload.setup(o.size, fleetSeed, it)
	setupWall, setupCPU := time.Since(t0), cpuTime()-c0
	tr.end(sid)
	if err != nil {
		return iterResult{}, fmt.Errorf("%s setup: %w", o.workload.name, err)
	}
	// Collect set-up garbage now rather than inside the timed section.
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tid := tr.begin("timed")
	cpu0 := cpuTime()
	start := time.Now()
	st.run(it)
	wall := time.Since(start) - it.paused
	cpu := cpuTime() - cpu0
	tr.end(tid)
	runtime.ReadMemStats(&ms1)

	c := st.counts()
	it.layer["workload.drives"] = float64(c.Drives)
	it.layer["workload.records"] = float64(c.Records)
	it.layer["workload.rows"] = float64(c.Rows)
	return iterResult{
		fleetSeed: fleetSeed,
		cpu:       cpu,
		counts:    c,
		peakRSS:   peakRSSMB(),
		traced:    tr != nil,
		setupWall: setupWall,
		setupCPU:  setupCPU,
		wall:      wall,
		gcCycles:  ms1.NumGC - ms0.NumGC,
		gcPauseMS: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		layer:     it.layer,
		sweepMS:   it.sweepMS,
		ops:       it.ops,
		failed:    it.failed,
		seen:      it.seen,
	}, nil
}

const (
	// minIterations is how many iterations a run makes at least, so
	// that every run's medians cover at least two fleets, and a traced
	// run has an untraced and a traced iteration.
	minIterations = 2
	// minSetups is how many set-ups a run times at least; setup_s is
	// their median.
	minSetups = 3
)

// result is one run's outcome: the benchmark's last output line plus
// what the human-readable lines and reference recording need.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Serving   map[string]float64
	// Wall is the median wall time of the untraced timed sections.
	Wall       float64
	Provenance provenance
	// Seen holds every checked operation's digest, by reference key.
	Seen      refTable
	TracePath string
}

// fleetSeedAt is the fleet seed of a run's i-th iteration. Iterations
// walk through consecutive fleets from the run's seed, so each run's
// medians cover several fleets rather than one; a traced run keeps
// each untraced/traced pair on one fleet.
func fleetSeedAt(o *options, i int) int64 {
	if o.trace {
		i /= 2
	}
	return fleetSeedFor(o.seed + int64(i))
}

// run measures the workload for o.seconds: whole iterations (set-up
// plus timed section) repeat until the timed sections add up to that
// long. A traced run alternates untraced and traced iterations, so its
// tracing overhead is measured inside one process.
func run(o *options) (*result, error) {
	runID := fmt.Sprintf("%s-seed%d-%d", o.workload.name, o.seed, time.Now().UnixNano())
	var tr *tracer
	if o.trace {
		tr = newTracer(runID)
	}
	var iters []iterResult
	var measured time.Duration
	for len(iters) < minIterations || measured.Seconds() < o.seconds {
		var itr *tracer
		if o.trace && len(iters)%2 == 1 {
			itr = tr
		}
		r, err := runIteration(o, itr, fleetSeedAt(o, len(iters)))
		if err != nil {
			return nil, err
		}
		iters = append(iters, r)
		measured += r.wall
		if o.log != nil {
			o.log("iteration %d (fleet %d, traced %t): setup %.3fs (cpu %.3fs), timed %.3fs (cpu %.3fs), %d operations, %d failed",
				len(iters), r.fleetSeed, r.traced, r.setupWall.Seconds(), r.setupCPU.Seconds(),
				r.wall.Seconds(), r.cpu.Seconds(), r.ops, r.failed)
		}
		settle()
	}
	setups := make([]float64, 0, minSetups)
	for _, r := range iters {
		setups = append(setups, r.setupCPU.Seconds())
	}
	for i := len(iters); len(setups) < minSetups; i++ {
		it := &iteration{seen: map[string]string{}, layer: map[string]float64{}}
		c0 := cpuTime()
		if _, err := o.workload.setup(o.size, fleetSeedAt(o, i), it); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload.name, err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		settle()
	}

	res := &result{Seen: refTable{}, Metrics: make(map[string]float64)}
	var untraced, traced []iterResult
	var fleets []fleetCounts
	for _, r := range iters {
		res.Attempted += r.ops
		res.Failed += r.failed
		key := refKey(o.workload.name, r.fleetSeed)
		if res.Seen[key] == nil {
			res.Seen[key] = r.seen
			fleets = append(fleets, fleetCounts{r.fleetSeed, r.counts})
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	res.Correct = res.Failed == 0
	res.Serving = servingMetrics(untraced)
	res.Wall = medianOf(untraced, func(r iterResult) float64 { return r.wall.Seconds() })
	res.Provenance = newProvenance(o, len(iters), fleets)

	if !o.trace {
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["cpu_s"] = medianOf(untraced, func(r iterResult) float64 { return r.cpu.Seconds() })
		// An iteration's peak rises, by as much as half again, when the
		// collector falls behind allocation, which a busy machine makes
		// more likely; the smallest peak is the steadiest measure of
		// the memory the workload needs.
		res.Metrics["peak_rss_mb"] = math.Inf(1)
		for _, r := range untraced {
			res.Metrics["peak_rss_mb"] = min(res.Metrics["peak_rss_mb"], r.peakRSS)
		}
		return res, nil
	}

	for _, d := range perLayer {
		res.Metrics[d.name] = medianOf(traced, func(r iterResult) float64 { return r.layer[d.name] })
	}
	for k, v := range res.Serving {
		res.Metrics[k] = v
	}
	res.Metrics["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	res.Metrics["wall_s"] = res.Wall
	res.Metrics["trace.wall_s"] = medianOf(traced, func(r iterResult) float64 { return r.wall.Seconds() })
	res.Metrics["trace.overhead_s"] = res.Metrics["trace.wall_s"] - res.Wall
	res.Metrics["runtime.gc_cycles"] = medianOf(untraced, func(r iterResult) float64 { return float64(r.gcCycles) })
	res.Metrics["runtime.gc_pause_ms"] = medianOf(untraced, func(r iterResult) float64 { return r.gcPauseMS })

	path, err := tr.write(o.traceDir, res.Provenance)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.TracePath = path
	return res, nil
}

// servingMetrics derives the fleet-ops serving figures from untraced
// iterations: sweep latency percentiles over every pooled SweepDay call,
// assessments per second of sweep time, and summed retraining time.
// Workloads without sweeps report zeros.
func servingMetrics(iters []iterResult) map[string]float64 {
	var lat []float64
	for _, r := range iters {
		lat = append(lat, r.sweepMS...)
	}
	layer := func(name string) float64 {
		return medianOf(iters, func(r iterResult) float64 { return r.layer[name] })
	}
	out := map[string]float64{
		"sweep_p50_ms":           percentile(lat, 0.5),
		"sweep_p90_ms":           percentile(lat, 0.9),
		"sweep_drive_days_per_s": 0,
		"retrain_s":              layer("retrain_s"),
	}
	if s := layer("fleetops.sweep_s"); s > 0 {
		out["sweep_drive_days_per_s"] = layer("fleetops.scored") / s
	}
	return out
}

// medianOf is the median of f over iters.
func medianOf(iters []iterResult, f func(iterResult) float64) float64 {
	v := make([]float64, len(iters))
	for i, r := range iters {
		v[i] = f(r)
	}
	return median(v)
}

// settle returns the previous iteration's memory before the next one
// starts, so iterations do not inherit each other's heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank p-quantile (the median interpolates
// between the two middle values); 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 {
		n := len(s)
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(rank, 0)]
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeapMB collects garbage and reports the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return mb(s[0].Value.Uint64())
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// resetPeakRSS restarts the kernel's peak resident-set count (VmHWM),
// so the next peakRSSMB covers only what follows. Where that is not
// allowed, peakRSSMB keeps reporting the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MB since start or
// the last resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: getrusage:", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
