package main

// metric names one reported number. BENCHMARK.json lists the same names,
// units and directions (TestMetricsMatchBenchmarkJSON).
type metric struct {
	name, unit, better string
}

// endToEnd are what a user of the system sees, medians over the
// untraced repetitions. work_per_s counts the workload's own unit (see
// workload.unit); failed_frac is carried by the result's attempted and
// failed fields, and reported as a per-layer metric, because it is 0
// whenever the program is correct.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"work_per_s", "1/s", "higher"},
}

// perLayer are read from one traced repetition (or, for the rates and
// failed_frac, from the whole run). A layer that a workload does not
// exercise reports 0 there.
func perLayer() []metric {
	var ms []metric
	for _, ids := range [][]string{networkEntries, circuitEntries} {
		for _, id := range ids {
			ms = append(ms, metric{"suite.entry_s." + id, "s", "lower"})
		}
	}
	return append(ms,
		metric{"mnist.corpus_s", "s", "lower"},
		metric{"core.baseline_s", "s", "lower"},
		metric{"core.cells", "count", "higher"},
		metric{"core.cells_computed", "count", "lower"},
		metric{"core.cell_busy_s", "s", "lower"},
		metric{"core.cell_wait_s", "s", "lower"},
		metric{"core.cell_mean_s", "s", "lower"},
		metric{"runner.utilization", "ratio", "higher"},
		metric{"runner.drain_idle_s", "s", "lower"},
		metric{"runner.cache.gets", "count", "lower"},
		metric{"runner.cache.hits", "count", "higher"},
		metric{"runner.cache.hit_ratio", "ratio", "higher"},
		metric{"runner.cache.get_s", "s", "lower"},
		metric{"runner.cache.puts", "count", "lower"},
		metric{"runner.cache.put_s", "s", "lower"},
		metric{"snn.learn_s", "s", "lower"},
		metric{"snn.assign_s", "s", "lower"},
		metric{"snn.eval_busy_s", "s", "lower"},
		metric{"snn.eval_wait_s", "s", "lower"},
		metric{"snn.networks", "count", "lower"},
		metric{"snn.learn_us_per_image", "us", "lower"},
		metric{"snn.assign_us_per_image", "us", "lower"},
		metric{"snn.exc_spikes_per_image", "count", "lower"},
		metric{"encoding.stream_s", "s", "lower"},
		metric{"encoding.share", "ratio", "lower"},
		metric{"encoding.input_spikes_per_image", "count", "lower"},
		metric{"neuron.points", "count", "higher"},
		metric{"neuron.sweep_busy_s", "s", "lower"},
		metric{"neuron.sweep_wait_s", "s", "lower"},
		metric{"neuron.hit_ratio", "ratio", "higher"},
		metric{"neuron.utilization", "ratio", "higher"},
		metric{"spice.solves", "count", "lower"},
		metric{"spice.newton_iters", "count", "lower"},
		metric{"spice.newton_per_solve", "ratio", "lower"},
		metric{"spice.us_per_solve", "us", "lower"},
		metric{"images_per_s", "1/s", "higher"},
		metric{"cells_per_s", "1/s", "higher"},
		metric{"points_per_s", "1/s", "higher"},
		metric{"failed_frac", "ratio", "lower"},
		metric{"trace.overhead_pc", "%", "lower"},
	)
}
