package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs on the smoke-test data (forest20x5, random30x45) with
// windows short enough for the whole file to finish in seconds. The
// end-to-end window still stretches until every p99 has ten samples
// beyond it.
func tinyConfig(t *testing.T) config {
	return config{
		seed:    1,
		window:  300 * time.Millisecond,
		warmup:  100 * time.Millisecond,
		setups:  2,
		size:    tinySize,
		scratch: t.TempDir(),
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables the program reports from identical.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, w, workloadSpecs[i].name, workloadSpecs[i].why)
		}
	}
	for _, tc := range []struct {
		name       string
		json, prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.name, len(tc.json), len(tc.prog))
			continue
		}
		for i := range tc.json {
			if tc.json[i] != tc.prog[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", tc.name, i, tc.json[i], tc.prog[i])
			}
		}
	}
}

// TestSmoke runs every workload end to end and traced on tiny data: all
// oracles pass, nothing fails, and every metric BENCHMARK.json names is
// emitted.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			cfg := tinyConfig(t)
			w, err := newWorkload(spec.name, cfg.size, cfg.seed)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runE2E(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r, b.EndToEnd)
			cfg.window = 400 * time.Millisecond
			r, err = runTraced(cfg, w, time.Now(), 10)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r, b.PerLayer)
			if len(r.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

func checkRun(t *testing.T, r *result, want []metricDef) {
	t.Helper()
	if !r.correct() || r.failed != 0 || r.attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d first wrong %q notes %q", r.correct(), r.attempted, r.failed, r.firstWrong, r.notes)
	}
	for _, d := range want {
		if _, ok := r.metrics[d.Name]; !ok {
			t.Errorf("metric %s not emitted", d.Name)
		}
	}
	var buf bytes.Buffer
	if err := printSummary(&buf, []*result{r}); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Metrics map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("summary line has %d metrics, want %d", len(line.Metrics), len(want))
	}
}

// TestWrongAnswerFails corrupts the analytic oracle: the wrong answers
// must show in error_rate and make the run exit non-zero.
func TestWrongAnswerFails(t *testing.T) {
	cfg := tinyConfig(t)
	w, err := newWorkload("serve-analytic", cfg.size, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	// The first node's answer ends set-up; every other one is corrupt.
	for _, c := range w.graphNodes[1:] {
		w.answers[c] = append(w.answers[c], "r(corrupt).")
	}
	r, err := runE2E(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.wrong == 0 || r.metrics["error_rate"].Value == 0 {
		t.Fatalf("wrong=%d error_rate=%v: corrupt answers went unnoticed", r.wrong, r.metrics["error_rate"])
	}
	if code := exitCode([]*result{r}); code == 0 {
		t.Fatal("exit code 0 after wrong answers")
	}
	var buf bytes.Buffer
	if err := printSummary(&buf, []*result{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Fatalf("summary %s claims correct", buf.String())
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestPercentileNeedsTenBeyond: a percentile is reported only when at
// least ten samples lie above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		v      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{0, 0.5, 0, 0, false},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %d, %v; want %v, %d, %v", tc.n, tc.p, v, beyond, ok, tc.v, tc.beyond, tc.ok)
		}
	}
	if n := samplesFor(0.99); n != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", n)
	}
}

// TestQuartilesMatchPython pins statistics.quantiles(range(1, 11), n=4)
// == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, err)
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// clipped to its own interval.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, Dur: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, Dur: 20 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, Dur: 30 * ms}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 90 * ms, Dur: 30 * ms}, // runs past the root
	}
	self := selfTimes(spans)
	if self[1] != 50*ms {
		t.Errorf("root self time %v, want 50ms", self[1])
	}
	if self[3] != 30*ms {
		t.Errorf("leaf self time %v, want its duration 30ms", self[3])
	}
}

// TestCompareJudgesRows: a regression beyond the bound and any rise in
// error_rate are worse; a noisy parent leaves a row unresolved.
func TestCompareJudgesRows(t *testing.T) {
	runs := func(metric string, vals ...float64) []ledgerRun {
		var out []ledgerRun
		for _, v := range vals {
			out = append(out, ledgerRun{Workload: "serve-lookup", Metrics: map[string]value{metric: {Value: v}}})
		}
		return out
	}
	for _, tc := range []struct {
		metric         string
		parent, change []float64
		want           string
	}{
		{"p50_ms", []float64{10, 10, 10, 10}, []float64{13, 13, 13}, "worse"},
		{"p50_ms", []float64{10, 10, 10, 10}, []float64{12, 12}, "flat"},
		{"p50_ms", []float64{10, 10.1, 9.9, 10}, []float64{8, 8}, "better"},
		{"ops_per_s", []float64{100, 100, 100}, []float64{70, 70}, "worse"},
		{"p99_ms", []float64{10, 14, 7, 10}, []float64{20}, "unresolved"},
		{"error_rate", []float64{0, 0}, []float64{0.001}, "worse"},
	} {
		rows, err := compareLedgers(&ledger{Runs: runs(tc.metric, tc.parent...)}, &ledger{Runs: runs(tc.metric, tc.change...)})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].verdict != tc.want {
			t.Errorf("%s %v -> %v: rows %+v, want verdict %s", tc.metric, tc.parent, tc.change, rows, tc.want)
		}
	}
}
