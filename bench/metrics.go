package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric. Bound, for end-to-end metrics only,
// is the share of the parent's median by which the metric may worsen
// before a change counts as a regression. BENCHMARK.json carries the
// same table; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a client of `datalog serve` sees, measured with
// tracing off. Every workload has reads, so read_p99_ms is defined on
// all four; write_p99_ms and error_rate go to the ledger only, because
// two workloads have no writes and a correct run's error_rate is 0.
//
// The timing bounds are wide because every workload is CPU-bound on a
// 2-vCPU host whose speed drifts by 10-25% in phases of a few minutes
// with its neighbours' load: ten runs of one workload spread by 4-21%
// (quartile distance over median). setup_s keeps the largest bound.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.24},
	{"p50_ms", "ms", "lower", 0.24},
	{"p99_ms", "ms", "lower", 0.24},
	{"read_p99_ms", "ms", "lower", 0.24},
	{"allocs_per_op", "allocs", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports; see README.md for how each
// metric is taken and which end-to-end metric it should move.
var perLayer = []metricDef{
	{"server.query_ms", "ms", "lower", 0},
	{"server.op_ms", "ms", "lower", 0},
	{"server.wait_ms", "ms", "lower", 0},
	{"server.proto_line_ms", "ms", "lower", 0},
	{"server.proto_http_ms", "ms", "lower", 0},
	{"parser.us_per_op", "us", "lower", 0},
	{"database.clone_ms", "ms", "lower", 0},
	{"database.active_domain_ms", "ms", "lower", 0},
	{"database.live_rows", "count", "lower", 0},
	{"eval.ms", "ms", "lower", 0},
	{"eval.self_ms", "ms", "lower", 0},
	{"eval.rounds", "count", "lower", 0},
	{"eval.firings", "count", "lower", 0},
	{"eval.derived", "count", "lower", 0},
	{"eval.index_builds", "count", "lower", 0},
	{"eval.useful_ratio", "ratio", "higher", 0},
	{"plan.cache_hit_rate", "ratio", "higher", 0},
	{"plan.rows_per_result", "ratio", "lower", 0},
	{"ivm.insert_us", "us", "lower", 0},
	{"ivm.retract_us", "us", "lower", 0},
	{"ivm.count_updates", "count", "lower", 0},
	{"ivm.firings", "count", "lower", 0},
	{"ivm.strata_run", "count", "lower", 0},
	{"ivm.rounds", "count", "lower", 0},
	{"ivm.durable_tax_us", "us", "lower", 0},
	{"wal.commit_us", "us", "lower", 0},
	{"wal.bytes_per_write", "B", "lower", 0},
	{"wal.write_amp", "ratio", "lower", 0},
	{"snapshot.write_ms", "ms", "lower", 0},
	{"snapshot.bytes_per_row", "B", "lower", 0},
	{"snapshot.per_1k_writes", "count", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// value is one measured metric. Samples is the number of samples a
// percentile was taken from.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// minBeyond is how many samples must lie above a percentile before it is
// reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of sorted and the
// number of samples above it. ok is false when fewer than minBeyond
// samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := ceil(p * float64(n))
	rank = min(max(rank, 1), n)
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// samplesFor is the fewest samples that let percentile report p.
func samplesFor(p float64) int {
	return ceil(minBeyond / (1 - p))
}

// ceil rounds x up, ignoring the rounding error of the float products
// above (0.99*1000 must give rank 990, not 991).
func ceil(x float64) int { return int(math.Ceil(x - 1e-9)) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), so that spreads computed here and by an outside script agree.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	d := sortedCopy(xs)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, fmt.Errorf("quartiles of no data")
	case 1:
		return d[0], d[0], nil
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(3), nil
}

// median is Python's statistics.median, the mean of the two middle
// values for an even count; 0 for none.
func median(xs []float64) float64 {
	d := sortedCopy(xs)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
