package diag

import (
	"bytes"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/testkit"
)

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

// TestTriggerProfileParses: a trigger's bundle carries the profile of the
// window after it, which the toolchain's pprof reads, and two runtime
// snapshots, one at the trigger and one at the end of the window.
func TestTriggerProfileParses(t *testing.T) {
	d := New(Config{Cooldown: time.Hour, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	go burn(1200 * time.Millisecond)
	if !d.Trigger("manual") {
		t.Fatal("trigger suppressed")
	}
	waitForBundle(t, d, 1)
	b := d.Latest()
	if len(b.CPUProfile) == 0 {
		t.Fatalf("bundle %+v carries no profile", b)
	}
	file := filepath.Join(t.TempDir(), "cpu.pb.gz")
	if err := os.WriteFile(file, b.CPUProfile, 0o644); err != nil {
		t.Fatal(err)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-raw", file)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go tool pprof -raw rejects the bundle's profile: %v\n%s", err, out)
	}
	if got := b.CPUEnd.Sub(b.CPUStart); got < profileWindow {
		t.Errorf("profile window %v, want %v", got, profileWindow)
	}
	if len(b.Runtime) != 2 {
		t.Fatalf("%d runtime snapshots, want 2 (trigger, window end)", len(b.Runtime))
	}
	last := b.Runtime[1]
	if last.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", last.Goroutines)
	}
	if last.HeapLiveBytes == 0 {
		t.Error("heap live bytes = 0")
	}
	if last.Time.Before(b.CPUEnd) {
		t.Errorf("last runtime snapshot at %v, before the window's end %v", last.Time, b.CPUEnd)
	}
	d.Close() // idempotent
}

// TestTriggerWithProfilerBusy: when something else holds the process's CPU
// profiler, the bundle goes out without a profile and says why, and so
// does its rendering.
func TestTriggerWithProfilerBusy(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	defer pprof.StopCPUProfile()
	d := New(Config{Cooldown: time.Hour, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	start := time.Now()
	if !d.Trigger("miss_streak", "session", "s1") {
		t.Fatal("trigger suppressed")
	}
	d.Close()
	pprof.StopCPUProfile()
	if waited := time.Since(start); waited >= profileWindow {
		t.Errorf("a capture without a profile took %v", waited)
	}
	b := d.Latest()
	if b == nil || len(b.CPUProfile) != 0 || !b.CPUStart.IsZero() {
		t.Fatalf("bundle %+v, want one without a profile", b)
	}
	why := b.Detail[profileDetail]
	if why == "" {
		t.Fatalf("bundle detail %v does not say why it has no profile", b.Detail)
	}
	var out bytes.Buffer
	if err := RenderBundle(&out, b, 5, "cpu.pb.gz"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reason: miss_streak session=s1\n", "cpu profile: none: " + why + "\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}
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
	d.Close() // publishes the capture in flight
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
	if got := testkit.CounterOf(s, "diag_bundles_total"); got != 1 {
		t.Errorf("diag_bundles_total = %d, want 1", got)
	}
	if got := testkit.CounterOf(s, "diag_triggers_suppressed_total"); got != 5 {
		t.Errorf("diag_triggers_suppressed_total = %d, want 5", got)
	}
}

// TestConcurrentTriggersCaptureOnce: triggers racing each other start one
// capture; triggers racing Close start none, and Close returns with the
// capture's bundle published.
func TestConcurrentTriggersCaptureOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := New(Config{Metrics: reg, Cooldown: time.Hour, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	const goroutines, each = 8, 20
	var started atomic.Int64
	triggers := func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if d.Trigger("race", "goroutine", g) {
						started.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}
	triggers()
	if n := started.Load(); n != 1 {
		t.Fatalf("%d captures started by racing triggers, want 1", n)
	}
	done := make(chan struct{})
	go func() { defer close(done); triggers() }()
	d.Close()
	<-done
	if n := started.Load(); n != 1 {
		t.Fatalf("%d captures started in all, want 1", n)
	}
	if b := d.Latest(); b == nil || b.Seq != 1 {
		t.Fatalf("latest bundle %+v after Close, want seq 1", b)
	}
	s := reg.Snapshot()
	if got := testkit.CounterOf(s, "diag_bundles_total"); got != 1 {
		t.Errorf("diag_bundles_total = %d, want 1", got)
	}
	if got, want := testkit.CounterOf(s, "diag_triggers_suppressed_total"), int64(2*goroutines*each-1); got != want {
		t.Errorf("diag_triggers_suppressed_total = %d, want %d", got, want)
	}
}

func TestTriggerCooldownExpires(t *testing.T) {
	d := New(Config{Cooldown: 30 * time.Millisecond, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	if !d.Trigger("one") {
		t.Fatal("first trigger suppressed")
	}
	if d.Trigger("in flight") {
		t.Fatal("second trigger while the first capture is in flight")
	}
	waitForBundle(t, d, 1)
	if d.Trigger("two") {
		t.Fatal("second trigger inside cooldown")
	}
	time.Sleep(60 * time.Millisecond)
	if !d.Trigger("three") {
		t.Fatal("trigger after cooldown suppressed")
	}
	d.Close()
	if d.Trigger("four") {
		t.Fatal("trigger after Close captured")
	}
	if got := d.seq.Load(); got != 2 {
		t.Errorf("bundle count = %d, want 2", got)
	}
}

func TestNilDiagIsInert(t *testing.T) {
	var d *Diag
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
	if got := testkit.GaugeOf(s, "gssr_build_info"); got != 1 {
		t.Errorf("gssr_build_info = %d, want 1", got)
	}
	if got := testkit.GaugeOf(s, "gssr_build_gomaxprocs"); got <= 0 {
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
