package diag

import (
	"bytes"
	"math"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// Sampler is the continuous profile ring: a background loop that, at a
// low duty cycle, captures a short CPU profile plus a runtime-metrics
// snapshot (heap live, GC pause, scheduler latency, goroutine count)
// into bounded in-memory rings. When the SLO watchdog fires, the newest
// ring entries become the bundle's "what was the process doing" record —
// no need to have had `go tool pprof` attached when the incident hit.
//
// Duty cycle: with the defaults (1s profile every 15s) the profiler is
// armed ~6.7% of the time; the profiler's own sampling (100 Hz) makes
// the steady-state overhead far below that — the BENCH_diag.json run
// quantifies it. Only one CPU profile can be active per process, so a
// sampler skips its window if something else —
// /debug/pprof/profile, a test — holds the profiler.
type SamplerConfig struct {
	// Period is the time between capture window starts (default 15s).
	Period time.Duration
	// Duration is the length of each CPU profile window (default 1s;
	// clamped to Period/2).
	Duration time.Duration
	// Ring is how many profile windows are retained (default 4).
	Ring int
	// RuntimeRing is how many runtime snapshots are retained (default 64).
	RuntimeRing int
}

func (c SamplerConfig) withDefaults() SamplerConfig {
	if c.Period <= 0 {
		c.Period = 15 * time.Second
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Duration > c.Period/2 {
		c.Duration = c.Period / 2
	}
	if c.Ring <= 0 {
		c.Ring = 4
	}
	if c.RuntimeRing <= 0 {
		c.RuntimeRing = 64
	}
	return c
}

// RingProfile is one captured CPU profile window.
type RingProfile struct {
	Start, End time.Time
	Data       []byte // gzipped pprof protobuf
}

// RuntimeSnapshot is one runtime/metrics reading. The GC pause and
// scheduler latency percentiles come from the runtime's cumulative
// histograms, so they describe the process since start, not the
// inter-snapshot window — still enough to see "pauses grew" or "run
// queues exploded" across a bundle's snapshot ring.
type RuntimeSnapshot struct {
	Time          time.Time     `json:"time"`
	Goroutines    int64         `json:"goroutines"`
	HeapLiveBytes uint64        `json:"heap_live_bytes"`
	GCCycles      uint64        `json:"gc_cycles"`
	GCPauseP50    time.Duration `json:"gc_pause_p50"`
	GCPauseP99    time.Duration `json:"gc_pause_p99"`
	SchedLatP50   time.Duration `json:"sched_lat_p50"`
	SchedLatP99   time.Duration `json:"sched_lat_p99"`
}

// Sampler captures the rings. Create with NewSampler, then Start; all
// methods are safe on a nil receiver.
type Sampler struct {
	cfg SamplerConfig

	mu        sync.Mutex
	profiles  []RingProfile // newest last, bounded to cfg.Ring
	snaps     []RuntimeSnapshot
	running   bool
	stop      chan struct{}
	done      chan struct{}
	metricSet []metrics.Sample // reused each snapshot
}

// NewSampler builds a sampler; Start arms it.
func NewSampler(cfg SamplerConfig) *Sampler {
	return &Sampler{cfg: cfg.withDefaults()}
}

// Start launches the background capture loop; idempotent.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.mu.Unlock()
	go s.loop()
}

// Stop halts the loop and waits for an in-flight window to finish;
// idempotent. The rings stay readable after Stop.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	close(s.stop)
	done := s.done
	s.mu.Unlock()
	<-done
}

func (s *Sampler) loop() {
	defer close(s.done)
	// Take one snapshot + profile immediately so a trigger shortly after
	// startup still has something in the ring.
	s.Snapshot()
	s.captureWindow()
	t := time.NewTicker(s.cfg.Period)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Snapshot()
			s.captureWindow()
		}
	}
}

// captureWindow runs one CPU profile window into the ring.
func (s *Sampler) captureWindow() {
	var buf bytes.Buffer
	start := time.Now()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		// Another profiler (a /debug/pprof/profile request, a test) holds
		// the singleton; skip this window.
		return
	}
	select {
	case <-s.stop:
	case <-time.After(s.cfg.Duration):
	}
	pprof.StopCPUProfile()
	s.mu.Lock()
	s.profiles = append(s.profiles, RingProfile{Start: start, End: time.Now(), Data: buf.Bytes()})
	if len(s.profiles) > s.cfg.Ring {
		copy(s.profiles, s.profiles[len(s.profiles)-s.cfg.Ring:])
		s.profiles = s.profiles[:s.cfg.Ring]
	}
	s.mu.Unlock()
}

// runtimeMetricNames are the runtime/metrics series a snapshot reads.
var runtimeMetricNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// Snapshot reads runtime/metrics into the snapshot ring and returns the
// reading. Also usable without Start for one-shot reads.
func (s *Sampler) Snapshot() RuntimeSnapshot {
	if s == nil {
		return RuntimeSnapshot{}
	}
	s.mu.Lock()
	if s.metricSet == nil {
		s.metricSet = make([]metrics.Sample, len(runtimeMetricNames))
		for i, n := range runtimeMetricNames {
			s.metricSet[i].Name = n
		}
	}
	set := s.metricSet
	s.mu.Unlock()
	metrics.Read(set)
	snap := RuntimeSnapshot{Time: time.Now()}
	for _, m := range set {
		switch m.Name {
		case "/sched/goroutines:goroutines":
			if m.Value.Kind() == metrics.KindUint64 {
				snap.Goroutines = int64(m.Value.Uint64())
			}
		case "/memory/classes/heap/objects:bytes":
			if m.Value.Kind() == metrics.KindUint64 {
				snap.HeapLiveBytes = m.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if m.Value.Kind() == metrics.KindUint64 {
				snap.GCCycles = m.Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				snap.GCPauseP50 = histQuantile(h, 0.5)
				snap.GCPauseP99 = histQuantile(h, 0.99)
			}
		case "/sched/latencies:seconds":
			if m.Value.Kind() == metrics.KindFloat64Histogram {
				h := m.Value.Float64Histogram()
				snap.SchedLatP50 = histQuantile(h, 0.5)
				snap.SchedLatP99 = histQuantile(h, 0.99)
			}
		}
	}
	s.mu.Lock()
	s.snaps = append(s.snaps, snap)
	if len(s.snaps) > s.cfg.RuntimeRing {
		copy(s.snaps, s.snaps[len(s.snaps)-s.cfg.RuntimeRing:])
		s.snaps = s.snaps[:s.cfg.RuntimeRing]
	}
	s.mu.Unlock()
	return snap
}

// histQuantile extracts quantile q from a runtime/metrics cumulative
// histogram, interpolating within the winning bucket.
func histQuantile(h *metrics.Float64Histogram, q float64) time.Duration {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > want {
			lo := h.Buckets[i]
			hi := h.Buckets[i+1]
			if math.IsInf(lo, -1) || lo < 0 {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return time.Duration((lo + hi) / 2 * float64(time.Second))
		}
	}
	last := h.Buckets[len(h.Buckets)-1]
	if math.IsInf(last, 1) {
		last = h.Buckets[len(h.Buckets)-2]
	}
	return time.Duration(last * float64(time.Second))
}

// LatestProfile returns the newest captured window, if any.
func (s *Sampler) LatestProfile() (RingProfile, bool) {
	if s == nil {
		return RingProfile{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.profiles) == 0 {
		return RingProfile{}, false
	}
	return s.profiles[len(s.profiles)-1], true
}

// Snapshots returns a copy of the runtime snapshot ring, oldest first.
func (s *Sampler) Snapshots() []RuntimeSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RuntimeSnapshot(nil), s.snaps...)
}
