package main

// -compare: the regression gate. It compares the end-to-end runs of a
// change's ledgers against a parent ledger, one row per workload and
// metric.

import (
	"fmt"
	"io"
	"math"
)

// row is one workload × metric comparison. Delta is the change in the
// metric's bad direction as a share of the parent median (positive is
// worse); Spread is the parent's quartile spread as a share of its
// median.
type row struct {
	workload, metric string
	parent, change   float64
	delta, spread    float64
	bound            float64
	verdict          string
}

// compareLedgers judges every end-to-end metric and error_rate of every
// workload both ledgers ran untraced. A row is unresolved when the
// parent's own spread exceeds the bound, worse when the change's median
// is worse than the parent's by more than the bound, better when it is
// better by more than the parent's spread, and flat otherwise. Any rise
// in error_rate is worse.
func compareLedgers(parent, change *ledger) ([]row, error) {
	var rows []row
	for _, spec := range workloadSpecs {
		pruns, cruns := untracedRuns(parent, spec.name), untracedRuns(change, spec.name)
		if len(pruns) == 0 || len(cruns) == 0 {
			continue
		}
		defs := append(endToEnd[:len(endToEnd):len(endToEnd)], metricDef{Name: "error_rate", Better: "lower"})
		for _, d := range defs {
			pv, cv := metricValues(pruns, d.Name), metricValues(cruns, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			q1, q3, err := quartiles(pv)
			if err != nil {
				return nil, err
			}
			r := row{workload: spec.name, metric: d.Name, parent: median(pv), change: median(cv), bound: d.Bound}
			if r.parent != 0 {
				r.spread = (q3 - q1) / math.Abs(r.parent)
				r.delta = (r.change - r.parent) / math.Abs(r.parent)
				if d.Better == "higher" {
					r.delta = -r.delta
				}
			}
			switch {
			case d.Name == "error_rate":
				r.verdict = "flat"
				if r.change > r.parent {
					r.verdict = "worse"
				}
			case r.spread > d.Bound:
				r.verdict = "unresolved"
			case r.delta > d.Bound:
				r.verdict = "worse"
			case -r.delta > r.spread:
				r.verdict = "better"
			default:
				r.verdict = "flat"
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the ledgers share no untraced workload")
	}
	return rows, nil
}

func untracedRuns(l *ledger, workload string) []ledgerRun {
	var out []ledgerRun
	for _, r := range l.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(runs []ledgerRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// runCompare prints the comparison of the change ledgers against the
// parent ledger and returns 1 when any row is worse.
func runCompare(parentPath string, changePaths []string, stdout, stderr io.Writer) int {
	if len(changePaths) == 0 {
		fmt.Fprintln(stderr, "dlbench: -compare PARENT needs at least one change ledger as an argument")
		return 2
	}
	parent, err := readLedger(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 2
	}
	change := &ledger{}
	for _, p := range changePaths {
		l, err := readLedger(p)
		if err != nil {
			fmt.Fprintln(stderr, "dlbench:", err)
			return 2
		}
		change.Runs = append(change.Runs, l.Runs...)
	}
	rows, err := compareLedgers(parent, change)
	if err != nil {
		fmt.Fprintln(stderr, "dlbench:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-15s %-14s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "parent", "change", "worse%", "spread%", "bound%", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-15s %-14s %12.5g %12.5g %8.2f %8.2f %8.2f  %s\n",
			r.workload, r.metric, r.parent, r.change, 100*r.delta, 100*r.spread, 100*r.bound, r.verdict)
		if r.verdict == "worse" {
			code = 1
		}
	}
	return code
}
