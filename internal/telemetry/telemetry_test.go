package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// counterOf returns the named counter's value in s (0 when absent).
func counterOf(s Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// gaugeOf returns the named gauge's value in s (0 when absent).
func gaugeOf(s Snapshot, name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	r.Histogram("h", LatencyBuckets()).Observe(0.5)
	r.Histogram("h", nil).ObserveDuration(time.Millisecond)
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if counterOf(s, "c") != 0 || gaugeOf(s, "g") != 0 {
		t.Error("absent metrics must read 0")
	}
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestUnregister(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(9)
	r.GaugeFunc("gf", func() int64 { return 1 })
	r.Histogram("h", LatencyBuckets()).Observe(0.5)
	for _, name := range []string{"c", "g", "gf", "h"} {
		r.Unregister(name)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Errorf("snapshot not empty after unregister: %+v", s)
	}
	// A re-registered name starts fresh — the old handle's state is gone
	// from the registry even if a stale pointer still mutates it.
	if r.Gauge("g").Set(1); gaugeOf(r.Snapshot(), "g") != 1 {
		t.Error("re-registered gauge did not start fresh")
	}
	// Unknown names and nil registries are no-ops.
	r.Unregister("never_registered")
	var nilReg *Registry
	nilReg.Unregister("g")
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(5)
	r.Counter("frames_total").Inc()
	r.Gauge("sessions_active").Set(3)
	r.Gauge("sessions_active").Add(-1)
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if got := counterOf(s, "frames_total"); got != 6 {
		t.Errorf("counter = %d", got)
	}
	if got := gaugeOf(s, "sessions_active"); got != 2 {
		t.Errorf("gauge = %d", got)
	}
	hv, ok := s.Histogram("lat_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hv.Count != 4 || math.Abs(hv.Sum-5.555) > 1e-9 {
		t.Errorf("count/sum = %d/%f", hv.Count, hv.Sum)
	}
	if hv.Min != 0.005 || hv.Max != 5 {
		t.Errorf("min/max = %f/%f", hv.Min, hv.Max)
	}
	if len(hv.Buckets) != 4 {
		t.Fatalf("buckets = %d", len(hv.Buckets))
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if hv.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d", i, hv.Buckets[i].Count)
		}
	}
	if !math.IsInf(hv.Buckets[3].Upper, 1) {
		t.Error("last bucket must be the overflow bucket")
	}
	q, err := hv.Quantile(50)
	if err != nil || q < hv.Min || q > hv.Max {
		t.Errorf("p50 = %f, %v", q, err)
	}
}

func TestSameNameReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("counter identity")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("gauge identity")
	}
	if r.Histogram("x", []float64{1}) != r.Histogram("x", []float64{2}) {
		t.Error("histogram identity")
	}
}

func TestObserveBoundaryGoesToBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1) // exactly on a bound: le-style, belongs to that bucket
	hv, _ := r.Snapshot().Histogram("h")
	if hv.Buckets[0].Count != 1 {
		t.Errorf("boundary sample landed in %+v", hv.Buckets)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const writers, each = 8, 1000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			c := r.Counter("n")
			h := r.Histogram("h", LatencyBuckets())
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(seed + float64(i)/each)
			}
		}(float64(w))
	}
	wg.Wait()
	s := r.Snapshot()
	if counterOf(s, "n") != writers*each {
		t.Errorf("counter = %d", counterOf(s, "n"))
	}
	hv, _ := s.Histogram("h")
	if hv.Count != writers*each {
		t.Errorf("histogram count = %d", hv.Count)
	}
	var inBuckets int64
	for _, b := range hv.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != hv.Count {
		t.Errorf("bucket sum %d != count %d", inBuckets, hv.Count)
	}
}

func TestSnapshotIsStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	r.Gauge("z").Set(1)
	r.Histogram("m", []float64{1}).Observe(0.5)
	var first, second strings.Builder
	if err := r.Snapshot().WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("snapshot JSON not stable across calls")
	}
	s := r.Snapshot()
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(2)
	r.Gauge("active").Set(1)
	h := r.Histogram("lat.seconds", []float64{0.5})
	h.Observe(0.25)
	h.Observe(2)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		"frames_total 2",
		"# TYPE active gauge",
		"# TYPE lat_seconds histogram", // dot mapped to underscore
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="+Inf"} 2`, // cumulative
		"lat_seconds_sum 2.25",
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String(), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "hits 1") || !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics = %q (%s)", body, ct)
	}
	body, ct = get("/metrics.json")
	if !strings.Contains(body, `"hits"`) || !strings.Contains(ct, "application/json") {
		t.Errorf("/metrics.json = %q (%s)", body, ct)
	}
	if body, _ := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("pprof cmdline empty")
	}
}

func TestBucketLadders(t *testing.T) {
	lat := LatencyBuckets()
	if len(lat) == 0 || lat[0] != 0.0005 {
		t.Errorf("latency buckets = %v", lat)
	}
	if lat[len(lat)-1] < 0.01666 {
		t.Error("latency ladder must bracket the 16.66ms frame budget")
	}
	bytes := ByteBuckets()
	if len(bytes) == 0 || bytes[0] != 256 || bytes[len(bytes)-1] != 4<<20 {
		t.Errorf("byte buckets = %v", bytes)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var v atomic.Int64
	v.Store(7)
	r.GaugeFunc("callback_gauge", v.Load)
	// First registration wins; a duplicate must not replace it.
	r.GaugeFunc("callback_gauge", func() int64 { return -1 })
	if got := gaugeOf(r.Snapshot(), "callback_gauge"); got != 7 {
		t.Fatalf("callback gauge = %d, want 7", got)
	}
	v.Store(9)
	if got := gaugeOf(r.Snapshot(), "callback_gauge"); got != 9 {
		t.Fatalf("callback gauge after update = %d, want 9", got)
	}
	// Nil-safe on both receiver and function.
	var nilReg *Registry
	nilReg.GaugeFunc("x", v.Load)
	r.GaugeFunc("nil_fn", nil)
}
