package diag

import (
	"math"
	"runtime/metrics"
	"time"
)

// RuntimeSnapshot is one runtime/metrics reading. A bundle holds two: one
// at its trigger and one at the end of its profile window. The GC pause
// and scheduler latency percentiles come from the runtime's cumulative
// histograms, so they describe the process since start, not the window
// between the two readings.
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

// runtimeMetricNames are the runtime/metrics series a snapshot reads.
var runtimeMetricNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// readRuntime reads runtime/metrics into a snapshot.
func readRuntime() RuntimeSnapshot {
	set := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		set[i].Name = n
	}
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
