package frametrace

import (
	"testing"
	"time"

	"gamestreamsr/internal/telemetry"
)

// gaugeOf returns the named gauge's value in s (0 when absent).
func gaugeOf(s telemetry.Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// TestStreakSetAggregatesAcrossRecorders: several recorders sharing one
// registry export their miss streaks as a max-across-sessions gauge
// instead of last-writer-wins.
func TestStreakSetAggregatesAcrossRecorders(t *testing.T) {
	reg := telemetry.NewRegistry()
	ss := NewStreakSet(reg)
	cfg := Config{Frames: 4, Deadline: time.Millisecond, Metrics: reg, Streaks: ss}
	r1, r2 := New(cfg), New(cfg)
	if ss.Size() != 2 {
		t.Fatalf("StreakSet size = %d, want 2", ss.Size())
	}

	miss := []StageLatency{{Name: "render", D: 5 * time.Millisecond}}
	hit := []StageLatency{{Name: "render", D: 100 * time.Microsecond}}
	for i := 0; i < 3; i++ {
		r1.ObserveDeadline(r1.BeginFrame(i), miss)
	}
	r2.ObserveDeadline(r2.BeginFrame(0), miss)

	s := reg.Snapshot()
	if got := gaugeOf(s, "frametrace_deadline_miss_streak"); got != 3 {
		t.Errorf("aggregated streak = %d, want max(3, 1) = 3", got)
	}
	// r2 recovers; the aggregate must still report r1's streak.
	r2.ObserveDeadline(r2.BeginFrame(1), hit)
	if got := gaugeOf(reg.Snapshot(), "frametrace_deadline_miss_streak"); got != 3 {
		t.Errorf("aggregated streak after r2 recovery = %d, want 3", got)
	}
	// Removing the worst member drops it out of the aggregation.
	ss.Remove(r1)
	if got := gaugeOf(reg.Snapshot(), "frametrace_deadline_miss_streak"); got != 0 {
		t.Errorf("aggregated streak after removing r1 = %d, want 0", got)
	}
	if got := gaugeOf(reg.Snapshot(), "frametrace_deadline_miss_streak_max"); got != 1 {
		t.Errorf("aggregated max streak = %d, want r2's 1", got)
	}
	ss.Remove(nil)
	var nilSet *StreakSet
	nilSet.Remove(r2)
}
