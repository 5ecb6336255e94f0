package logx

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLogRendering: the writer gets slog's text format; the ring keeps the
// message and the fields, without time or level.
func TestLogRendering(t *testing.T) {
	var buf bytes.Buffer
	r := NewRing(&buf)
	slog.New(r).Warn("stream: slow send", "session", "10.0.0.1:9", "frame", 12, "flight", uint64(7), "took", 20*time.Millisecond)
	out := buf.String()
	for _, want := range []string{"level=WARN", `msg="stream: slow send"`, "session=10.0.0.1:9", "frame=12", "flight=7", "took=20ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("output not newline-terminated: %q", out)
	}
	if e := r.Recent(0)[0]; e.Line != "stream: slow send session=10.0.0.1:9 frame=12 flight=7 took=20ms" {
		t.Errorf("ring line = %q", e.Line)
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	r := NewRing(&buf)
	l := slog.New(r)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	out := buf.String()
	if strings.Contains(out, "DEBUG") {
		t.Errorf("sub-threshold lines written: %q", out)
	}
	if !strings.Contains(out, "level=INFO msg=i") || !strings.Contains(out, "level=WARN msg=w") {
		t.Errorf("expected info+warn lines, got %q", out)
	}
	if got := r.Recent(0); len(got) != 2 {
		t.Errorf("ring holds %d entries, want 2", len(got))
	}
	if Default().Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug should be disabled on Default")
	}
}

func TestQuoting(t *testing.T) {
	r := NewRing(io.Discard)
	slog.New(r).Info("msg", "err", fmt.Errorf("boom with spaces"), "s", "a b", "plain", "ok")
	line := r.Recent(0)[0].Line
	for _, want := range []string{`err="boom with spaces"`, `s="a b"`, "plain=ok"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
}

func TestRingWrapAndRecent(t *testing.T) {
	r := NewRing(io.Discard)
	for i := 0; i < ringLines+6; i++ {
		slog.New(r).Info("line", "i", i)
	}
	got := r.Recent(0)
	if len(got) != ringLines {
		t.Fatalf("ring holds %d entries, want %d", len(got), ringLines)
	}
	for i, e := range got {
		want := fmt.Sprintf("i=%d", 6+i)
		if !strings.HasSuffix(e.Line, want) {
			t.Errorf("entry %d = %q, want suffix %q (oldest-first order)", i, e.Line, want)
		}
	}
	if got2 := r.Recent(2); len(got2) != 2 || !strings.HasSuffix(got2[1].Line, fmt.Sprintf("i=%d", ringLines+5)) {
		t.Errorf("Recent(2) = %+v, want the 2 newest", got2)
	}
}

// TestRecentLineStartsWithMessage: a ring entry's Line starts at the
// message — the level is Entry.Level's alone, so a renderer that prints
// both shows it once.
func TestRecentLineStartsWithMessage(t *testing.T) {
	l := NewRing(io.Discard)
	slog.New(l).Warn("fault injection armed", "events", 2)
	e := l.Recent(0)[0]
	if want := "fault injection armed events=2"; e.Line != want || e.Level != "WARN" {
		t.Errorf("entry = level %q line %q, want level WARN line %q", e.Level, e.Line, want)
	}
}

// TestDerivedHandlersShareRing: attributes and groups added with With and
// WithGroup reach the line, and every derived logger fills the one ring —
// a field named level stays a field.
func TestDerivedHandlersShareRing(t *testing.T) {
	r := NewRing(io.Discard)
	l := slog.New(r)
	l.With("session", "s1").Warn("shed up", "level", 2)
	l.WithGroup("g").Info("grouped", "k", 1)
	got := r.Recent(0)
	if len(got) != 2 || got[0].Line != "shed up session=s1 level=2" || got[1].Line != "grouped g.k=1" {
		t.Errorf("ring = %+v", got)
	}
}

func TestConcurrentLogging(t *testing.T) {
	r := NewRing(io.Discard)
	l := slog.New(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("concurrent", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Recent(0)); got != ringLines {
		t.Errorf("ring holds %d entries, want full %d", got, ringLines)
	}
}

func TestLimiter(t *testing.T) {
	lim := NewLimiter(0.0001, 2) // effectively no refill within the test
	for i := 0; i < 2; i++ {
		if ok, sup := lim.Allow("a"); !ok || sup != 0 {
			t.Fatalf("burst allow %d: ok=%v sup=%d", i, ok, sup)
		}
	}
	for i := 0; i < 5; i++ {
		if ok, _ := lim.Allow("a"); ok {
			t.Fatalf("allow %d after burst exhausted", i)
		}
	}
	// A different key has its own bucket.
	if ok, _ := lim.Allow("b"); !ok {
		t.Error("key b should have a fresh bucket")
	}
	// Refill and observe the suppressed count.
	lim2 := NewLimiter(1000, 1)
	lim2.Allow("k")
	lim2.Allow("k") // may or may not be suppressed depending on timing; force drain
	var suppressed uint64
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if ok, sup := lim2.Allow("k"); ok && sup > 0 {
			suppressed = sup
			break
		}
	}
	if suppressed == 0 {
		t.Skip("timing did not produce a suppressed run (slow machine)")
	}
}

// TestLimiterBoundsKeysUnderChurn: keys all active within one second —
// reconnect churn, a new port per key — must not grow the map past
// maxBuckets, and a new key still gets its first line.
func TestLimiterBoundsKeysUnderChurn(t *testing.T) {
	lim := NewLimiter(1, 1)
	for i := 0; i < 3*maxBuckets; i++ {
		lim.Allow(fmt.Sprintf("slow_send:10.0.0.1:%d", 10000+i))
	}
	if n := len(lim.buckets); n > maxBuckets {
		t.Errorf("limiter holds %d buckets, bound is %d", n, maxBuckets)
	}
	if ok, _ := lim.Allow("shed:10.0.0.2:9"); !ok {
		t.Error("a new key's first line was suppressed")
	}
}

func TestNilLimiterAllowsAll(t *testing.T) {
	var lim *Limiter
	if ok, sup := lim.Allow("x"); !ok || sup != 0 {
		t.Errorf("nil limiter: ok=%v sup=%d", ok, sup)
	}
}
