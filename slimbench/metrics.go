package main

import "fmt"

// metricDef is one metric of BENCHMARK.json. moves names the end-to-end
// metric and workload a per-layer metric is expected to move, written down
// before any change is measured with it.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd lists the metrics a --trace 0 run prints: what a user of the
// pad or the store sees. The tail is gated at p90: p99 moves 12-28% from
// seed to seed on a shared 2-vCPU machine, more than the largest bound a
// metric may have, so it is reported with the per-layer metrics.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", ""},
	{"latency_p50_us", "us", "lower", ""},
	{"latency_p90_us", "us", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"live_heap_mb", "MB", "lower", ""},
}

// opClasses lists every op class of every workload, in mix order. A class
// name is shared when two workloads run the same gesture.
var opClasses = []string{
	"open", "peek", "move", "reclip", "find", "tree", // rounds (move also in ingest)
	"select_s", "select_po", "view", "path", "has", "write", // query
	"rename", "bundle", "note", "link", // ingest
}

// perLayer lists the metrics a --trace 1 run prints. A layer a workload
// does not reach reads 0 on that workload.
var perLayer = append([]metricDef{
	{"slimpad.self_us_per_op", "us", "lower", "ops_per_s, latency_p50_us on rounds"},
	{"slimpad.open_us", "us", "lower", "ops_per_s, latency_p50_us on rounds"},
	{"slim.self_us_per_op", "us", "lower", "ops_per_s on rounds; latency_p50_us on ingest"},
	{"slim.calls_per_op", "count", "lower", "ops_per_s on rounds; latency_p50_us on ingest"},
	{"slim.get_us", "us", "lower", "ops_per_s on rounds; latency_p50_us on ingest"},
	{"mark.resolve_us", "us", "lower", "latency_p50_us on rounds"},
	{"mark.extract_us", "us", "lower", "latency_p50_us on rounds"},
	{"base.self_us_per_op", "us", "lower", "latency_p50_us on rounds (small: about 2% of it)"},
	{"base.calls_per_op", "count", "lower", "latency_p50_us on rounds"},
	{"base.goto_us", "us", "lower", "latency_p50_us on rounds"},
	{"trim.self_us_per_op", "us", "lower", "ops_per_s on query and rounds"},
	{"trim.calls_per_op", "count", "lower", "ops_per_s on query and rounds"},
	{"trim.select_s_us", "us", "lower", "ops_per_s on query and rounds"},
	{"trim.view_us", "us", "lower", "ops_per_s on query and rounds"},
	{"trim.rows_examined_per_returned", "ratio", "lower", "latency_p50_us on query"},
	{"trim.lock_wait_us_per_op", "us", "lower", "latency_p90_us and latency_p99_us on query"},
	{"trim.bytes_per_triple", "B", "lower", "live_heap_mb on query"},
	{"trim.load_s", "s", "lower", "setup_s on query"},
	{"wal.self_us_per_op", "us", "lower", "latency_p50_us, ops_per_s on ingest"},
	{"wal.commit_us", "us", "lower", "latency_p50_us, ops_per_s, disk_bytes_per_op on ingest"},
	{"wal.bytes_per_commit", "B", "lower", "latency_p50_us, ops_per_s, disk_bytes_per_op on ingest"},
	{"wal.compactions", "count", "lower", "latency_p90_us and latency_p99_us on ingest"},
	{"wal.compact_ms", "ms", "lower", "latency_p90_us and latency_p99_us on ingest"},
	{"wal.replay_s", "s", "lower", "setup_s on ingest"},
	{"obs.spans_per_op", "count", "lower", "ops_per_s on all three workloads"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "latency_p90_us, latency_p99_us and ops_per_s on all three"},
	{"runtime.allocs_per_op", "count", "lower", "latency_p90_us, latency_p99_us and ops_per_s on all three"},
	{"runtime.gc_cpu_share", "ratio", "lower", "latency_p90_us, latency_p99_us and ops_per_s on all three"},
	{"runtime.cpu_us_per_op", "us", "lower", "latency_p90_us, latency_p99_us and ops_per_s on all three"},
	{"latency_p99_us", "us", "lower", "the tail: wal compaction on ingest, lock waits on query; not gated, its run-to-run spread on a shared 2-vCPU machine exceeds the largest bound"},
	{"error_rate", "ratio", "lower", "must stay 0 on every workload"},
	{"disk_bytes_per_op", "B", "lower", "wal changes on ingest; 0 on rounds and query"},
	{"steady.triples_delta", "count", "lower", "0 when every create is paired with a remove"},
	{"steady.second_half_ops_ratio", "ratio", "higher", "near 1 when the workload is steady"},
	{"trace.overhead_share", "ratio", "lower", "traced minus untraced mean op time, over untraced"},
	{"trace.self_sum_ratio", "ratio", "higher", "layer self times over traced op time; 1 when they add up"},
	{"trace.unattributed_share", "ratio", "lower", "op time in spans of no known layer or lost spans"},
}, classMetrics()...)

func classMetrics() []metricDef {
	var out []metricDef
	for _, c := range opClasses {
		out = append(out,
			metricDef{fmt.Sprintf("class.%s.p50_us", c), "us", "lower", "shows which gesture a change moved"},
			metricDef{fmt.Sprintf("class.%s.time_share", c), "ratio", "lower", "shows which gesture a change moved"})
	}
	return out
}

// unitOf returns the unit of a declared metric.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
