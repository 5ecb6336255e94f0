// Package telemetry is the repo's zero-dependency runtime metrics layer:
// atomic counters, gauges and fixed-bucket histograms behind a Registry
// with a stable Snapshot for tests and JSON/Prometheus-text encoders
// (encode.go) plus an HTTP endpoint with pprof (http.go).
//
// Design constraints, in order:
//
//   - Nil safety. Every method on *Registry, *Counter, *Gauge and
//     *Histogram is a no-op on a nil receiver, so instrumented hot paths
//     (the pipeline engine, the stream server) carry a single possibly-nil
//     *Registry and never branch on "is telemetry on?".
//   - Allocation-light hot path. Instrument sites resolve their metric
//     handles once; Add/Set/Observe touch only atomics — no maps, no
//     locks, no allocation.
//   - Determinism. Metrics observe wall-clock durations and so differ run
//     to run, but they live strictly outside the pipeline's Result; the
//     determinism tests assert that enabling a Registry leaves result
//     JSON byte-identical.
//
// Histogram quantiles are estimated from the bucket counts by
// stats.BucketPercentile, keeping the numeric convention of the existing
// internal/stats summaries.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/stats"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// AddDuration accumulates d as nanoseconds — the convention for the
// *_ns_total wait counters. No-op on a nil receiver.
func (c *Counter) AddDuration(d time.Duration) { c.Add(int64(d)) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (use a negative n to decrement). No-op on a
// nil receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations. Bucket
// bounds are upper bounds in ascending order; one implicit overflow bucket
// catches everything above the last bound. Sum/min/max are kept via CAS so
// Observe stays lock-free under concurrent writers.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
	minBits atomic.Uint64 // float64 bits, +Inf until first Observe
	maxBits atomic.Uint64 // float64 bits, -Inf until first Observe
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records a duration in seconds — the unit every *_seconds
// histogram uses. No-op on a nil receiver.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Registry holds named metrics. The zero value is not useful — use
// NewRegistry — but a nil *Registry is a fully functional no-op, which is
// how instrumentation stays optional.
type Registry struct {
	mu       sync.Mutex
	counts   map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts:   map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at every Snapshot
// and its result appears among the gauges under name. This is how derived
// values — aggregates over live sessions, say — are exported without a
// writer updating a stored gauge. First registration wins; fn must be
// concurrency-safe and must not call back into the registry. No-op on a
// nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFns[name]; !ok {
		r.gaugeFns[name] = fn
	}
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later bounds are ignored — first creation
// wins). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Unregister removes the named metric — counter, gauge, gauge func or
// histogram — from the registry, so per-session metrics (whose names embed
// a remote address) don't accumulate without bound under session churn.
// Handles already held keep working; their updates just no longer appear
// in snapshots. Re-creating the name later starts a fresh
// metric. No-op on a nil registry or an unknown name.
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counts, name)
	delete(r.gauges, name)
	delete(r.gaugeFns, name)
	delete(r.hists, name)
}

// LatencyBuckets is the default bucket ladder for *_seconds histograms:
// 0.5 ms to ~8 s in powers of two, bracketing both the 16.66 ms frame
// budget and slow simulated runs.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 15)
	for b := 0.0005; b < 10; b *= 2 {
		out = append(out, b)
	}
	return out
}

// ByteBuckets is the default bucket ladder for frame-size histograms:
// 256 B to 4 MiB in powers of four.
func ByteBuckets() []float64 {
	out := make([]float64, 0, 9)
	for b := 256.0; b <= 8<<20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// --- snapshots ---------------------------------------------------------------

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Bucket is one histogram bucket: the count of samples at or below Upper.
// The overflow bucket has Upper = +Inf (serialized as "+Inf" by the
// encoders).
type Bucket struct {
	Upper float64 `json:"upper"`
	Count int64   `json:"count"`
}

// HistogramValue is one histogram in a Snapshot.
type HistogramValue struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Quantile estimates the p-th percentile (0..100) from the bucket counts
// via stats.BucketPercentile, clamped to the observed min/max.
func (h HistogramValue) Quantile(p float64) (float64, error) {
	bounds := make([]float64, len(h.Buckets))
	counts := make([]int64, len(h.Buckets))
	for i, b := range h.Buckets {
		bounds[i] = b.Upper
		counts[i] = b.Count
	}
	return stats.BucketPercentile(bounds, counts, h.Min, h.Max, p)
}

// Snapshot is a point-in-time copy of every metric, sorted by name — the
// stable view tests and the encoders consume.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Histogram returns the named histogram and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Snapshot copies every metric. Safe under concurrent writers; returns the
// zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counts {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, fn := range r.gaugeFns {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: fn()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:  name,
			Count: h.count.Load(),
			Sum:   math.Float64frombits(h.sumBits.Load()),
		}
		if hv.Count > 0 {
			hv.Min = math.Float64frombits(h.minBits.Load())
			hv.Max = math.Float64frombits(h.maxBits.Load())
		}
		for i := range h.counts {
			upper := math.Inf(1)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			hv.Buckets = append(hv.Buckets, Bucket{Upper: upper, Count: h.counts[i].Load()})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
