package diag

import (
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/telemetry"
)

// counterOf returns the named counter's value in s (0 when absent).
func counterOf(s telemetry.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// gaugeOf returns the named gauge's value in s (0 when absent).
func gaugeOf(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// TestMain logs as the binaries do: through slog's default, onto
// logx.Default()'s ring, where the endpoint tests look for their lines.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(logx.Default()))
	os.Exit(m.Run())
}

// burn spins real CPU so the profiler has something to sample. The sink
// defeats dead-code elimination; burners run concurrently, so it is atomic.
var burnSink atomic.Uint64

func burn(d time.Duration) {
	deadline := time.Now().Add(d)
	x := uint64(12345)
	for time.Now().Before(deadline) {
		for i := 0; i < 1<<14; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		burnSink.Add(x)
	}
}

func TestSamplerRings(t *testing.T) {
	s := NewSampler(SamplerConfig{Period: 80 * time.Millisecond, Duration: 20 * time.Millisecond, Ring: 2, RuntimeRing: 3})
	s.Start()
	defer s.Stop()
	go burn(200 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.LatestProfile(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no profile captured in 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p, _ := s.LatestProfile()
	file := filepath.Join(t.TempDir(), "ring.pb.gz")
	if err := os.WriteFile(file, p.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-raw", file)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go tool pprof -raw rejects the ring profile: %v\n%s", err, out)
	}
	if snaps := s.Snapshots(); len(snaps) == 0 {
		t.Error("no runtime snapshots")
	} else {
		last := snaps[len(snaps)-1]
		if last.Goroutines <= 0 {
			t.Errorf("goroutines = %d, want > 0", last.Goroutines)
		}
		if last.HeapLiveBytes == 0 {
			t.Error("heap live bytes = 0")
		}
		if len(snaps) > 3 {
			t.Errorf("runtime ring grew to %d, bound is 3", len(snaps))
		}
	}
	s.Stop() // idempotent
}

func TestTriggerHysteresis(t *testing.T) {
	reg := telemetry.NewRegistry()
	log := logx.NewRing(io.Discard)
	slog.New(log).Warn("before trigger", "frame", 7)
	dir := t.TempDir()
	d := New(Config{Metrics: reg, Log: log, Dir: dir, Cooldown: time.Hour})
	defer d.Close()

	if !d.Trigger("miss_streak", "session", "s1", "streak", 9) {
		t.Fatal("first trigger suppressed")
	}
	for i := 0; i < 5; i++ {
		if d.Trigger("miss_streak") {
			t.Fatal("trigger inside cooldown captured a bundle")
		}
	}
	if got := d.seq.Load(); got != 1 {
		t.Fatalf("bundle count = %d, want 1", got)
	}
	b := d.Latest()
	if b == nil || b.Reason != "miss_streak" || b.Detail["session"] != "s1" {
		t.Fatalf("bundle = %+v", b)
	}
	if b.Goroutines == "" || !strings.Contains(b.Goroutines, "goroutine profile") {
		t.Error("bundle missing goroutine dump")
	}
	found := false
	for _, e := range b.Logs {
		if strings.Contains(e.Line, "before trigger") {
			found = true
		}
	}
	if !found {
		t.Error("bundle missing the pre-trigger log line")
	}
	if len(b.Metrics) == 0 || !bytes.Contains(b.Metrics, []byte("diag_bundles_total")) {
		t.Error("bundle missing the metrics snapshot")
	}

	// The bundle file round-trips through ParseBundle and renders.
	path := filepath.Join(dir, "bundle-000001.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("bundle file: %v", err)
	}
	defer f.Close()
	parsed, err := ParseBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Seq != 1 || parsed.Reason != "miss_streak" {
		t.Errorf("parsed bundle seq %d reason %q", parsed.Seq, parsed.Reason)
	}
	var out bytes.Buffer
	if err := RenderBundle(&out, parsed, 5, "cpu.pb.gz"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"diag bundle #1", "reason: miss_streak", "session=s1", "recent log lines"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
	s := reg.Snapshot()
	if got := counterOf(s, "diag_bundles_total"); got != 1 {
		t.Errorf("diag_bundles_total = %d, want 1", got)
	}
	if got := counterOf(s, "diag_triggers_suppressed_total"); got != 5 {
		t.Errorf("diag_triggers_suppressed_total = %d, want 5", got)
	}
}

func TestTriggerCooldownExpires(t *testing.T) {
	d := New(Config{Cooldown: 30 * time.Millisecond, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	if !d.Trigger("one") {
		t.Fatal("first trigger suppressed")
	}
	if d.Trigger("two") {
		t.Fatal("second trigger inside cooldown")
	}
	time.Sleep(60 * time.Millisecond)
	if !d.Trigger("three") {
		t.Fatal("trigger after cooldown suppressed")
	}
	if got := d.seq.Load(); got != 2 {
		t.Errorf("bundle count = %d, want 2", got)
	}
}

func TestNilDiagIsInert(t *testing.T) {
	var d *Diag
	d.Start()
	d.Close()
	if d.Trigger("x") {
		t.Error("nil diag captured")
	}
	if d.Latest() != nil {
		t.Error("nil diag not inert")
	}
	rr := httptest.NewRecorder()
	d.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag", nil))
	if rr.Code != 404 {
		t.Errorf("nil diag handler status %d, want 404", rr.Code)
	}
}

func TestHandler(t *testing.T) {
	d := New(Config{Cooldown: time.Hour, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	h := d.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag", nil))
	if rr.Code != 404 {
		t.Fatalf("empty diag status %d, want 404", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/diag?trigger=1", nil))
	if rr.Code != 200 {
		t.Fatalf("trigger status %d, want 200", rr.Code)
	}
	b, err := ParseBundle(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "manual" {
		t.Errorf("reason %q, want manual", b.Reason)
	}
	// Cooldown holds for plain triggers; force=1 bypasses it.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/diag?trigger=1", nil))
	if got := d.seq.Load(); got != 1 {
		t.Fatalf("plain trigger bypassed cooldown: %d bundles", got)
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/diag?trigger=1&force=1", nil))
	if got := d.seq.Load(); got != 2 {
		t.Errorf("forced trigger did not capture: %d bundles", got)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := telemetry.NewRegistry()
	RegisterBuildInfo(reg)
	RegisterBuildInfo(reg) // idempotent
	RegisterBuildInfo(nil) // nil-safe
	s := reg.Snapshot()
	if got := gaugeOf(s, "gssr_build_info"); got != 1 {
		t.Errorf("gssr_build_info = %d, want 1", got)
	}
	if got := gaugeOf(s, "gssr_build_gomaxprocs"); got <= 0 {
		t.Errorf("gssr_build_gomaxprocs = %d, want > 0", got)
	}
	goInfo := false
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, "gssr_build_info_go_go") && g.Value == 1 {
			goInfo = true
		}
	}
	if !goInfo {
		t.Errorf("no gssr_build_info_go_* gauge in %+v", s.Gauges)
	}
	b := Build()
	if b.GoVersion == "" || b.GOMAXPROCS <= 0 || b.NumCPU <= 0 {
		t.Errorf("Build() = %+v", b)
	}
}
