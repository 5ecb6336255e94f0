package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json; DisallowUnknownFields below
// makes "exactly these keys" part of the test.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTheHarness pins BENCHMARK.json to the tables the
// harness reports from, so neither can drift without the other.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Command) != 2 || b.Command[0] != "bash" || b.Command[1] != "bench/run.sh" {
		t.Errorf("command = %v, want bash bench/run.sh", b.Command)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d layer metrics: outside the contract's limits", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}

	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		d := endToEnd[i]
		if m.Bound == nil {
			t.Errorf("%s: no bound", m.Name)
			continue
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v bound %v, the harness %+v", i, m, *m.Bound, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("layer", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("layer %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("layer metric %q is not named <layer>.<metric>", m.Name)
		}
		// Every "should move" target names a real metric on a real workload.
		for _, target := range d.Moves {
			metric, wl, ok := strings.Cut(target, "@")
			if !ok {
				t.Errorf("%s: moves target %q is not metric@workload", m.Name, target)
				continue
			}
			if _, err := workloadByName(wl); err != nil {
				t.Errorf("%s: moves target %q: %v", m.Name, target, err)
			}
			found := false
			for _, e := range endToEnd {
				found = found || e.Name == metric
			}
			if !found {
				t.Errorf("%s: moves target %q names no end-to-end metric", m.Name, target)
			}
		}
	}

	// Every metric the composition derives is one BENCHMARK.json lists.
	for _, ls := range layerSources {
		if !used[ls.metric] {
			t.Errorf("layer source %q is not a per_layer metric", ls.metric)
		}
	}
}
