package diag

import (
	"context"
	"io"
	"runtime/pprof"
	"testing"
	"time"

	"gamestreamsr/internal/diag/logx"
	"gamestreamsr/internal/testkit"
)

// TestBundleProfilesTheIncident: a bundle describes the moment its trigger
// fired, not the process's start-up. A Diag sits idle for 1.5 s, then a
// goroutine labelled session=incident burns CPU and the trigger fires: the
// bundle's profile window starts no earlier than the trigger, holds samples
// of the burner read back through `go tool pprof -traces`, and its last
// runtime snapshot is no older than the trigger.
func TestBundleProfilesTheIncident(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling run is not -short")
	}
	d := New(Config{Cooldown: time.Hour, Log: logx.NewRing(io.Discard)})
	defer d.Close()
	time.Sleep(1500 * time.Millisecond)

	stop := make(chan struct{})
	burning := make(chan struct{})
	go pprof.Do(context.Background(), pprof.Labels("session", "incident"), func(context.Context) {
		close(burning)
		for {
			select {
			case <-stop:
				return
			default:
				burn(10 * time.Millisecond)
			}
		}
	})
	<-burning
	trigger := time.Now()
	if !d.Trigger("miss_streak", "session", "incident") {
		t.Fatal("trigger suppressed")
	}
	waitForBundle(t, d, 1)
	close(stop)
	d.Close()

	b := d.Latest()
	if b == nil {
		t.Fatal("no bundle published")
	}
	if b.CPUStart.Before(trigger) {
		t.Errorf("profile window starts at %v, %v before the trigger", b.CPUStart.Format("15:04:05.000"), trigger.Sub(b.CPUStart))
	}
	if len(b.CPUProfile) == 0 {
		t.Fatal("bundle carries no CPU profile")
	}
	_, samples := testkit.PprofTraces(t, b.CPUProfile)
	var incident int64
	for _, s := range samples {
		if s.Labels["session"] == "incident" {
			incident += s.Nanos
		}
	}
	if incident == 0 {
		t.Errorf("no sample of the profile carries session=incident (%d sample blocks)", len(samples))
	}
	if n := len(b.Runtime); n == 0 || b.Runtime[n-1].Time.Before(trigger) {
		t.Errorf("last runtime snapshot %+v is older than the trigger at %v", b.Runtime, trigger.Format("15:04:05.000"))
	}
}

// waitForBundle polls until d has published bundle seq.
func waitForBundle(t *testing.T, d *Diag, seq int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if b := d.Latest(); b != nil && b.Seq == seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bundle %d not published in 5s", seq)
		}
	}
}
