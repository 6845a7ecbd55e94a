package main

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's whole output vocabulary; BENCHMARK.json at
// the repository root lists the same names and units, and the smoke
// test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of any workload sees, printed by an
// untraced run. Each applies to every workload and is never zero. Times
// are CPU seconds: on a virtual machine whose neighbours take a varying
// share of its CPUs, wall time of the same work varies by more than any
// bound could allow, while CPU time holds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// observationRunners are the sub-10 ms table and observation
// experiments; their per-layer metrics fold into
// experiments.observations_*.
var observationRunners = map[string]bool{
	"table1": true, "table2": true, "table5": true, "table6": true,
	"fig2": true, "fig3": true, "fig4": true, "fig5": true, "fig6": true,
}

// experimentKeys are the per-layer keys of the report's runners, in
// registry order, with the observation runners folded into one.
var experimentKeys = []string{
	"observations", "fig9", "fig10", "fig11", "fig12", "fig17", "fig18",
	"fig19", "fig20", "gridsearch", "importance", "channels", "seeds",
	"costs", "theta", "gaps", "segmentation", "crossval", "ratio",
	"cumulative", "poswindow",
}

// experimentKey maps a registry runner to its per-layer key.
func experimentKey(runner string) string {
	if observationRunners[runner] {
		return "experiments.observations"
	}
	return "experiments." + runner
}

// perLayer are the metrics of a traced run. A layer a workload does not
// reach reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"error_rate", "ratio"},
		{"sweep_p50_ms", "ms"},
		{"sweep_p90_ms", "ms"},
		{"sweep_drive_days_per_s", "1/s"},
		{"retrain_s", "s"},
		{"wall_s", "s"},
		{"trace.wall_s", "s"},
		{"trace.overhead_s", "s"},
		{"workload.drives", "count"},
		{"workload.records", "count"},
		{"workload.rows", "count"},
		{"simfleet.simulate_s", "s"},
	}
	for _, k := range experimentKeys {
		defs = append(defs,
			metricDef{"experiments." + k + "_s", "s"},
			metricDef{"experiments." + k + "_alloc_mb", "MB"},
			metricDef{"experiments." + k + "_live_mb", "MB"})
	}
	defs = append(defs,
		metricDef{"dataset.write_mfpac_s", "s"},
		metricDef{"dataset.read_telemetry_s", "s"},
		metricDef{"dataset.mfpac_mb", "MB"},
		metricDef{"core.prepare_frame_s", "s"},
		metricDef{"core.train_s", "s"},
		metricDef{"core.sample_s", "s"},
		metricDef{"core.fit_s", "s"},
		metricDef{"core.eval_s", "s"},
		metricDef{"core.records", "count"},
		metricDef{"core.train_rows", "count"},
		metricDef{"core.test_rows", "count"},
		metricDef{"modelio.marshal_s", "s"},
		metricDef{"modelio.envelope_kb", "KB"},
		metricDef{"fleetops.step_s", "s"},
		metricDef{"fleetops.publish_s", "s"},
		metricDef{"fleetops.sweep_s", "s"},
		metricDef{"serve.bootstrap_s", "s"},
		metricDef{"serve.replay_rows", "count"},
		metricDef{"fleetops.sweep_alloc_mb", "MB"},
		metricDef{"fleetops.train_alloc_mb", "MB"},
	)
	for _, c := range sweepCounters {
		defs = append(defs, metricDef{"fleetops." + c, "count"})
	}
	return append(defs,
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"})
}

// sweepCounters name the summed fleetops.SweepStats fields, in the
// order the fleetops workload lists them.
var sweepCounters = []string{
	"records", "scored", "flagged", "alarmed", "dropped",
	"quarantined", "skipped", "degraded", "no_model", "retries",
}
