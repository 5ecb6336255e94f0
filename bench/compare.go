package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is how the
// benchmark's driver measures spread. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median; 0 when there are too few runs to have one.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict compares side B's runs of one metric with side A's, by the rule of
// choosing-metrics §6: a regression is B's median worse than A's by more
// than the bound; where either side's own spread exceeds the bound the pair
// is unresolved, unless every run of B reads better than every run of A.
func verdict(d metricDef, a, b []float64) (worse, spread float64, status string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	spread = max(spreadShare(a), spreadShare(b))
	if spread > d.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return worse, spread, "unresolved"
		}
	}
	if worse > d.Bound {
		return worse, spread, "REGRESSED"
	}
	return worse, spread, "ok"
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects a workload's untraced values of one metric.
func (f *benchFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Records {
		if r.Workload == workload && !r.Traced && len(r.Problems) == 0 {
			xs = append(xs, r.Metrics[metric])
		}
	}
	return xs
}

// compareFiles prints, per workload and end-to-end metric, both medians, how
// much worse B is, the bound and the verdict. ok is false past a bound.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	fa, err := readBenchFile(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readBenchFile(pathB)
	if err != nil {
		return false, err
	}
	ok = true
	fmt.Fprintf(w, "A: %s (%s, seed %d)\nB: %s (%s, seed %d)\n", pathA, fa.Env.Build.GoVersion, fa.Env.Seed, pathB, fb.Env.Build.GoVersion, fb.Env.Seed)
	fmt.Fprintf(w, "%-20s %-24s %12s %12s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "B worse", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := fa.values(wl.Name, d.Name), fb.values(wl.Name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-20s %-24s missing on one side (A %d runs, B %d runs)\n", wl.Name, d.Name, len(a), len(b))
				ok = false
				continue
			}
			worse, spread, status := verdict(d, a, b)
			fmt.Fprintf(w, "%-20s %-24s %12.4f %12.4f %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				wl.Name, d.Name, median(a), median(b), 100*worse, 100*spread, 100*d.Bound, status)
			if status == "REGRESSED" {
				ok = false
			}
		}
	}
	return ok, nil
}
