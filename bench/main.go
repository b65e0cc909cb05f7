// Command dlbench is the end-to-end benchmark of `datalog serve`. It
// starts an in-process server.Server with a line-protocol listener and
// an http.Server on loopback, drives four named workloads through them
// with a closed loop that alternates between two clients (one per
// protocol) and keeps one request in flight, checks every
// answer, and prints every metric by name with its unit. A traced run
// (-trace 1) instead reports the per-layer breakdown. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	                  [-trace-out FILE] [-o LEDGER]
//	bash bench/run.sh -compare PARENT_LEDGER CHANGE_LEDGER...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// warmup precedes every measured window: caches fill and lazy set-up
// finishes before timing starts.
const warmup = 3 * time.Second

// An end-to-end run sets the server up at least setups times and for at
// least setupTime; setup_s is the median. A set-up takes 15-70 ms.
const (
	setups    = 9
	setupTime = 2 * time.Second
)

// run is the command; it returns the exit code: 0 when every answer was
// correct, 1 when one was not or -compare found a regression, 2 on a
// usage or set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var names []string
	for _, s := range workloadSpecs {
		names = append(names, s.name)
	}
	workloadFlag := flags.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flags.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flags.Int("seconds", 20, "measured window per workload, in seconds")
	trace := flags.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	traceOut := flags.String("trace-out", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	ledgerPath := flags.String("o", "", "append the runs, with every metric and the host, to this JSON ledger")
	compare := flags.String("compare", "", "compare the ledgers given as arguments against this parent ledger")
	scratch := flags.String("scratch", ".bench_build", "directory the runs' durable stores are made in and removed from")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		return runCompare(*compare, flags.Args(), stdout, stderr)
	}
	if flags.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "dlbench: want -seconds >= 1, -trace 0 or 1, and no arguments")
		return 2
	}
	if *workloadFlag != "all" {
		if _, ok := findSpec(*workloadFlag); !ok {
			fmt.Fprintf(stderr, "dlbench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		names = []string{*workloadFlag}
	}
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		warmup:    warmup,
		setups:    setups,
		setupTime: setupTime,
		size:      fullSize,
		scratch:   *scratch,
	}
	epoch := time.Now()
	procs := make(map[int]string)
	var results []*result
	for i, name := range names {
		w, err := newWorkload(name, cfg.size, cfg.seed)
		if err != nil {
			fmt.Fprintln(stderr, "dlbench:", err)
			return 2
		}
		var res *result
		if *trace == 1 {
			pidBase := 10 * (i + 1)
			for pass, pn := range passNames {
				procs[pidBase+pass] = name + " " + pn
			}
			res, err = runTraced(cfg, w, epoch, pidBase)
		} else {
			res, err = runE2E(cfg, w)
		}
		if err != nil {
			fmt.Fprintf(stderr, "dlbench: %s: %v\n", name, err)
			return 2
		}
		printResult(stdout, stderr, res)
		results = append(results, res)
	}
	if *traceOut != "" && *trace == 1 {
		var spans []span
		for _, r := range results {
			spans = append(spans, r.spans...)
		}
		if err := writeChromeTrace(*traceOut, spans, procs); err != nil {
			fmt.Fprintln(stderr, "dlbench: writing trace:", err)
			return 2
		}
	}
	if *ledgerPath != "" {
		if err := appendLedger(*ledgerPath, *seconds, results); err != nil {
			fmt.Fprintln(stderr, "dlbench: writing ledger:", err)
			return 2
		}
	}
	if err := printSummary(stdout, results); err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 2
	}
	return exitCode(results)
}

func exitCode(results []*result) int {
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// reported returns the metric table a run prints: end-to-end or
// per-layer, plus the ledger-only metrics of an end-to-end run.
func reported(r *result) []metricDef {
	if r.trace {
		return perLayer
	}
	return append(endToEnd[:len(endToEnd):len(endToEnd)],
		metricDef{Name: "write_p99_ms"}, metricDef{Name: "error_rate"})
}

// printResult prints one line per metric, `workload metric value unit`,
// with the sample count a percentile or median was taken from; a traced
// run adds the spans' self time by name.
func printResult(stdout, stderr io.Writer, r *result) {
	for _, d := range reported(r) {
		v, ok := r.metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "%s %s %.6g %s", r.workload, d.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(stdout, " n=%d", v.Samples)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%s correct=%v attempted=%d failed=%d wrong=%d\n",
		r.workload, r.correct(), r.attempted, r.failed, r.wrong)
	if r.firstWrong != "" {
		fmt.Fprintf(stderr, "%s: first wrong answer: %s\n", r.workload, r.firstWrong)
	}
	for _, n := range r.notes {
		fmt.Fprintf(stderr, "%s: %s\n", r.workload, n)
	}
	if r.trace {
		printSelfTimes(stdout, r)
	}
}

// printSelfTimes prints, per span name, the call count, the median
// duration and the total self time.
func printSelfTimes(w io.Writer, r *result) {
	self := selfTimes(r.spans)
	type agg struct {
		durs []float64
		self time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.durs = append(a.durs, ms(s.Dur))
		a.self += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%s span %s calls=%d p50_ms=%.4g self_ms=%.4g\n", r.workload, n, len(a.durs), median(a.durs), ms(a.self))
	}
}

// printSummary prints the last line: one JSON object with the run's
// correctness, op counts and metrics. With one workload the metrics
// carry their own names; with several, each is prefixed by its workload.
func printSummary(w io.Writer, results []*result) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		defs := endToEnd
		if r.trace {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := r.metrics[d.Name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
			}
			name := d.Name
			if len(results) > 1 {
				name = r.workload + "." + name
			}
			out.Metrics[name] = metric{v.Value, v.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// ledger is the -o file: runs accumulate across invocations, and
// -compare reads two of them.
type ledger struct {
	Host host        `json:"host"`
	Runs []ledgerRun `json:"runs"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type ledgerRun struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func thisHost() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH}
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// appendLedger adds results to the ledger at path, creating it with
// this host's description when it does not exist.
func appendLedger(path string, seconds int, results []*result) error {
	l, err := readLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l, err = &ledger{Host: thisHost()}, nil
	}
	if err != nil {
		return err
	}
	for _, r := range results {
		l.Runs = append(l.Runs, ledgerRun{
			Workload: r.workload, Seed: r.seed, Seconds: seconds, Trace: r.trace,
			Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
		})
	}
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ledger-")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(data, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
