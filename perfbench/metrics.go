package main

import (
	"fmt"
	"sort"
)

// endToEndUnits is every metric a timed run (--trace 0) reports, on every
// workload, with its unit. README.md says what each measures.
var endToEndUnits = map[string]string{
	"setup_s":                 "s",
	"mpid_job_ms_p50":         "ms",
	"hadoop_job_ms_p50":       "ms",
	"mpid_cpu_ms_per_job":     "ms",
	"hadoop_cpu_ms_per_job":   "ms",
	"mpid_alloc_mb_per_job":   "MB",
	"hadoop_alloc_mb_per_job": "MB",
	"mpid_peak_rss_mb":        "MB",
	"hadoop_peak_rss_mb":      "MB",
	"serve_jobs_per_s":        "jobs/s",
	"serve_latency_ms_p50":    "ms",
	"serve_latency_ms_p99":    "ms",
	"serve_cpu_ms_per_job":    "ms",
}

// layerUnits is every row a traced run (--trace 1) reports, on every
// workload, with its unit. Rows are per job, averaged over the traced jobs,
// except the _p50 rows, which are medians.
var layerUnits = map[string]string{
	// MPI-D phase rows; they sum to mapred.job_ms.
	"mapred.job_ms":       "ms",
	"mapred.startup_ms":   "ms",
	"mapred.map_phase_ms": "ms",
	"mapred.drain_ms":     "ms",
	"mapred.teardown_ms":  "ms",
	// MPI-D busy time summed over ranks, and counts.
	"mapred.input_ms":         "ms",
	"mapred.map_ms":           "ms",
	"core.send_ms":            "ms",
	"core.combine_ms":         "ms",
	"core.recv_ms":            "ms",
	"mapred.reduce_ms":        "ms",
	"core.send_calls":         "count",
	"core.combine_values_in":  "count",
	"core.combine_values_out": "count",
	"core.recv_groups":        "count",
	"core.pairs_sent":         "count",
	"core.pairs_combined":     "count",
	"core.spills":             "count",
	"core.messages_sent":      "count",
	"core.bytes_sent":         "B",
	"mpi.bytes_per_message":   "B/msg",
	"trace.overhead_pct.mpid": "%",
	// Hadoop phase rows; they sum to hadoop.job_ms.
	"hadoop.job_ms":       "ms",
	"hadoop.startup_ms":   "ms",
	"hadoop.map_phase_ms": "ms",
	"hadoop.drain_ms":     "ms",
	"hadoop.teardown_ms":  "ms",
	// Hadoop task phases from the JobReport, summed over tasks.
	"hadoop.map_run_ms":       "ms",
	"hadoop.map_spill_ms":     "ms",
	"hadoop.reduce_copy_ms":   "ms",
	"hadoop.reduce_sort_ms":   "ms",
	"hadoop.reduce_reduce_ms": "ms",
	"hadoop.reduce_merge_ms":  "ms",
	"hadoop.copy_share_pct":   "%",
	// Hadoop user code and scheduling, from the wrappers.
	"hadoop.user_map_ms":        "ms",
	"hadoop.collect_ms":         "ms",
	"hadoop.user_reduce_ms":     "ms",
	"hadoop.combine_ms":         "ms",
	"hadoop.sched_wait_ms":      "ms",
	"hadoop.task_success_ratio": "ratio",
	"trace.overhead_pct.hadoop": "%",
	// The job's metrics snapshot.
	"hadooprpc.calls":       "count",
	"hadooprpc.call_ms_p50": "ms",
	"hadooprpc.bytes":       "B",
	"jetty.fetches":         "count",
	"jetty.fetch_bytes":     "B",
	"jetty.fetch_ms_p50":    "ms",
	"jetty.fetch_retries":   "count",
	"shuffle.merge_passes":  "count",
	// The service loop; the phase rows sum to serve.engine_ms.
	"serve.submit_ms_p50": "ms",
	"serve.engine_ms_p50": "ms",
	"serve.queue_ms_p50":  "ms",
	"serve.rejected":      "count",
	"serve.engine_ms":     "ms",
	"serve.startup_ms":    "ms",
	"serve.map_phase_ms":  "ms",
	"serve.drain_ms":      "ms",
	"serve.teardown_ms":   "ms",
}

// withUnits attaches units to a run's values, and fails unless the values
// name exactly the metrics of the table.
func withUnits(values map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(values))
	var missing, extra []string
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = metric{v, unit}
	}
	for name := range values {
		if _, ok := units[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return out, fmt.Errorf("metrics missing %v, unexpected %v", missing, extra)
	}
	return out, nil
}
