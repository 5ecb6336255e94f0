package diag

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestBundleFieldsGolden pins the JSON field names of a captured bundle —
// what `gssr diag` and any operator tooling parse — one path a line, with
// array elements written as name[]: the bundle's own fields, its build
// identity, each logs[] entry and each runtime[] snapshot. The embedded
// documents (flight_trace, metrics) have goldens of their own, and detail's
// keys are the trigger's data, so the walk stops at them. A test binary
// carries no VCS stamp, so build.revision is absent here. Regenerate with
// `go test ./internal/diag -run BundleFieldsGolden -update`.
func TestBundleFieldsGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := frametrace.New(frametrace.Config{Frames: 4, Metrics: reg})
	id := rec.BeginFrame(0)
	rec.ObserveDeadline(id, []frametrace.StageLatency{{Name: "send", D: time.Millisecond}})
	log := logx.NewRing(io.Discard)
	slog.New(log).Warn("before trigger", "frame", 7)
	d := New(Config{Metrics: reg, Flight: rec, Log: log, Cooldown: time.Hour})
	// A short sampler window, so the bundle carries a CPU profile.
	d.sampler = NewSampler(SamplerConfig{Period: 80 * time.Millisecond, Duration: 20 * time.Millisecond})
	d.Start()
	defer d.Close()
	go burn(200 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, ok := d.sampler.LatestProfile(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no profile captured in 5s")
		}
	}
	if !d.Trigger("miss_streak", "session", "s1") {
		t.Fatal("trigger suppressed")
	}
	var buf bytes.Buffer
	if err := d.Latest().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, sub := range x {
				p := prefix + k
				paths = append(paths, p)
				switch p {
				case "detail", "flight_trace", "metrics":
					continue
				}
				walk(p+".", sub)
			}
		case []any:
			if len(x) > 0 {
				walk(strings.TrimSuffix(prefix, ".")+"[].", x[0])
			}
		}
	}
	walk("", doc)
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	golden := filepath.Join("testdata", "bundle_fields.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("bundle fields moved from %s (re-run with -update if intended); got:\n%s", golden, got)
	}
}
