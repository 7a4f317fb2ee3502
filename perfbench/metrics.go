package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run (--trace 0), reported on
// every workload. An "op" is the workload's unit of work: a request
// (hop-small, hop-faulted), a MiB moved (stream-bulk) or an executed
// campaign unit (campaign-tree). Wall-clock throughput and latency are
// printed on the run's info line and reported by the traced run, but not
// gated: on a shared 2-vCPU host, ten runs of the same code spread
// throughput by up to 31% and latency by up to 45% of the median, while
// CPU time, allocations and memory per op stayed within 15%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"max_rss_MiB", "MiB", "lower"},
}

// perLayer are the metrics of the traced run (--trace 1). A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// Workload-level figures from the untraced half of the traced run:
	// op latency (a request timed from its due time, a 1 MiB GET, a unit
	// from rule installation to settlement) and closed-loop throughput.
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"capacity_rps", "req/s", "higher"},
	{"l4_MBps", "MB/s", "higher"},
	{"http_MBps", "MB/s", "higher"},
	{"units_per_min", "units/min", "higher"},
	{"error_ratio", "ratio", "lower"},

	{"rules.decide_ns", "ns", "lower"},
	{"rules.fired_ratio", "ratio", "higher"},

	{"proxy.hop_overhead_us", "us", "lower"},
	{"proxy.allocs_per_hop", "count", "lower"},
	{"proxy.cpu_us_per_hop", "us", "lower"},
	{"proxy.streamed_ratio", "ratio", "higher"},
	{"proxy.body_cpu_ms_per_MiB", "ms", "lower"},

	{"eventlog.log_us", "us", "lower"},
	{"eventlog.records_per_op", "count", "lower"},
	{"eventlog.batch_records", "count", "higher"},
	{"eventlog.dropped", "count", "lower"},
	{"eventlog.select_ms.p50", "ms", "lower"},
	{"eventlog.select_ms.p99", "ms", "lower"},
	{"eventlog.count_ms", "ms", "lower"},
	{"eventlog.clear_ms", "ms", "lower"},
	{"eventlog.selects_per_unit", "count", "lower"},
	{"eventlog.flush_ms", "ms", "lower"},

	{"agentapi.put_ruleset_ms", "ms", "lower"},
	{"agentapi.get_ruleset_ms", "ms", "lower"},
	{"orchestrator.calls_per_unit", "count", "lower"},

	{"checker.check_ms", "ms", "lower"},
	{"checker.self_ms", "ms", "lower"},

	{"core.translate_us", "us", "lower"},

	{"campaign.unit_ms.p50", "ms", "lower"},
	{"campaign.pruned_ratio", "ratio", "higher"},
	{"campaign.self_ms", "ms", "lower"},

	{"streamproxy.overhead_ratio", "ratio", "lower"},
	{"streamproxy.cpu_ms_per_MiB", "ms", "lower"},
	{"streamproxy.connect_us", "us", "lower"},

	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"go.gc_cycles_per_kop", "count", "lower"},
	{"go.heap_peak_MiB", "MiB", "lower"},
	{"go.goroutines_peak", "count", "lower"},

	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.samples", "count", "higher"},

	{"trace.overhead_ratio", "ratio", "lower"},

	// Same-run references: the bases of the ratios and differences above.
	{"ref.direct_p50_ms", "ms", "lower"},
	{"ref.direct_cpu_ms_per_op", "ms", "lower"},
	{"ref.direct_allocs_per_op", "count", "lower"},
	{"ref.direct_echo_MBps", "MB/s", "higher"},
	{"ref.untraced_cpu_ms_per_op", "ms", "lower"},
	{"ref.traced_cpu_ms_per_op", "ms", "lower"},
	{"ref.spans", "count", "higher"},
}

// layerMetrics returns a per-layer metric map with every name at 0, for a
// workload to fill in.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
