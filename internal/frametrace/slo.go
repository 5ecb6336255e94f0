package frametrace

import (
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/telemetry"
)

// slo is the deadline/SLO tracker riding on the recorder: per-stage
// deadline-miss counters, the consecutive-miss streak and the frame-latency
// histogram (p99/p99.9 come from its buckets). Instruments live on the
// caller's telemetry.Registry when one is configured, so they surface on
// /metrics next to the engine's histograms; otherwise on a private registry
// that only Report reads.
type slo struct {
	deadline time.Duration
	reg      *telemetry.Registry

	frames    *telemetry.Counter
	delivered *telemetry.Counter
	misses    *telemetry.Counter
	streak    *telemetry.Gauge
	streakMax *telemetry.Gauge
	frameLat  *telemetry.Histogram

	// stageMiss caches the per-stage miss counters so attribution does not
	// rebuild the metric name (an allocation) on every miss — under a
	// sustained overload, misses are the steady state, not the cold path.
	stageMu   sync.Mutex
	stageMiss map[string]*telemetry.Counter

	// curStreak/maxStreak back the gauges. ObserveDeadline is documented
	// frame-ordered single-goroutine (the measure stage) for the streak to
	// be exact, but the updates are atomic so misuse stays race-clean.
	curStreak, maxStreak atomic.Int64
}

func (s *slo) init(cfg Config) {
	s.deadline = cfg.Deadline
	if s.deadline <= 0 {
		s.deadline = DefaultDeadline
	}
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.frames = s.reg.Counter("frametrace_frames_total")
	s.delivered = s.reg.Counter("frametrace_frames_delivered_total")
	s.misses = s.reg.Counter("frametrace_deadline_miss_total")
	if cfg.Streaks != nil {
		// Aggregated streak export: the StreakSet owns the gauges and
		// reports the max across its member recorders, so concurrent
		// sessions don't overwrite each other's values (the stored gauges
		// stay nil — nil-safe no-ops in observe).
		cfg.Streaks.add(s)
	} else {
		s.streak = s.reg.Gauge("frametrace_deadline_miss_streak")
		s.streakMax = s.reg.Gauge("frametrace_deadline_miss_streak_max")
	}
	s.frameLat = s.reg.Histogram("frametrace_frame_latency_seconds", telemetry.LatencyBuckets())
	s.stageMiss = make(map[string]*telemetry.Counter)
}

// StreakSet aggregates the deadline-miss streak gauges of several live
// recorders into one pair of callback gauges reporting the max across
// members — the fix for the last-writer-wins problem a shared registry
// otherwise has under concurrent sessions. Register recorders by passing
// the set in Config.Streaks; call Remove when a session ends.
type StreakSet struct {
	mu      sync.Mutex
	members map[*slo]struct{}
}

// NewStreakSet builds the set and registers its aggregate gauges on reg
// under the standard streak metric names.
func NewStreakSet(reg *telemetry.Registry) *StreakSet {
	ss := &StreakSet{members: map[*slo]struct{}{}}
	reg.GaugeFunc("frametrace_deadline_miss_streak", func() int64 {
		return ss.maxOf(func(s *slo) int64 { return s.curStreak.Load() })
	})
	reg.GaugeFunc("frametrace_deadline_miss_streak_max", func() int64 {
		return ss.maxOf(func(s *slo) int64 { return s.maxStreak.Load() })
	})
	return ss
}

func (ss *StreakSet) add(s *slo) {
	ss.mu.Lock()
	ss.members[s] = struct{}{}
	ss.mu.Unlock()
}

// Remove drops a recorder from the aggregation (call when its session
// ends, so a dead session's final streak stops dominating the gauge).
func (ss *StreakSet) Remove(r *Recorder) {
	if ss == nil || r == nil {
		return
	}
	ss.mu.Lock()
	delete(ss.members, &r.slo)
	ss.mu.Unlock()
}

// Size returns the number of member recorders.
func (ss *StreakSet) Size() int {
	if ss == nil {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.members)
}

func (ss *StreakSet) maxOf(f func(*slo) int64) int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var max int64
	for s := range ss.members {
		if v := f(s); v > max {
			max = v
		}
	}
	return max
}

// stageMissCounter resolves (and caches) the attribution counter of one
// stage; only the first miss per stage name allocates.
func (s *slo) stageMissCounter(name string) *telemetry.Counter {
	s.stageMu.Lock()
	c, ok := s.stageMiss[name]
	if !ok {
		c = s.reg.Counter("frametrace_deadline_miss_" + name + "_total")
		s.stageMiss[name] = c
	}
	s.stageMu.Unlock()
	return c
}

// observe folds one delivered frame into the SLO state. worst indexes the
// dominant stage of the frame (miss attribution); stages may be empty.
func (s *slo) observe(total time.Duration, missed bool, stages []StageLatency, worst int) {
	s.delivered.Inc()
	s.frameLat.ObserveDuration(total)
	if !missed {
		s.curStreak.Store(0)
		s.streak.Set(0)
		return
	}
	s.misses.Inc()
	cur := s.curStreak.Add(1)
	s.streak.Set(cur)
	for {
		max := s.maxStreak.Load()
		if cur <= max {
			break
		}
		if s.maxStreak.CompareAndSwap(max, cur) {
			s.streakMax.Set(cur)
			break
		}
	}
	if worst >= 0 && worst < len(stages) {
		s.stageMissCounter(stages[worst].Name).Inc()
	}
}

// Report is a point-in-time SLO summary — what `gssr sim` prints and the
// experiment harness appends to its summaries.
type Report struct {
	Deadline      time.Duration
	Frames        int64 // frames begun (including frozen/undelivered)
	Delivered     int64 // frames that reached deadline accounting
	Misses        int64
	CurrentStreak int64
	LongestStreak int64
	P50, P99      time.Duration
	P999          time.Duration
}

// MissRate returns misses/delivered (0 when nothing was delivered).
func (rep Report) MissRate() float64 {
	if rep.Delivered == 0 {
		return 0
	}
	return float64(rep.Misses) / float64(rep.Delivered)
}

// Report summarises the recorder's SLO state. The percentiles are
// estimated from the frame-latency histogram's buckets (the p99/p99.9 the
// issue tracker watches). Zero Report on a nil recorder.
func (r *Recorder) Report() Report {
	if r == nil {
		return Report{}
	}
	rep := Report{
		Deadline:      r.slo.deadline,
		Frames:        r.slo.frames.Value(),
		Delivered:     r.slo.delivered.Value(),
		Misses:        r.slo.misses.Value(),
		CurrentStreak: r.slo.curStreak.Load(),
		LongestStreak: r.slo.maxStreak.Load(),
	}
	if h, ok := r.slo.reg.Snapshot().Histogram("frametrace_frame_latency_seconds"); ok && h.Count > 0 {
		q := func(p float64) time.Duration {
			v, err := h.Quantile(p)
			if err != nil {
				return 0
			}
			return time.Duration(v * float64(time.Second))
		}
		rep.P50, rep.P99, rep.P999 = q(50), q(99), q(99.9)
	}
	return rep
}
