// Package frametrace is the per-frame flight recorder of the reproduction:
// a fixed-size ring of per-frame span records that is lock-light and
// allocation-free in steady state, so it can stay attached to the pipeline
// engine (and to stream sessions) in production without perturbing the hot
// path. When a frame blows the paper's 16.66 ms budget (§IV), the recorder
// can say which stage ate the slack and what that frame's RoI and bitstream
// looked like — the attribution that aggregate histograms (internal/
// telemetry) cannot provide.
//
// Concurrency model: every frame gets a monotonically increasing ID from
// BeginFrame; the ID picks a ring slot (id & mask). Each slot carries its
// own mutex — there is no global lock, and writers from different pipeline
// stages touch the same slot at different times (stages are sequential per
// frame), so a stage write is one uncontended lock acquisition plus a few
// stores. Snapshot locks one slot at a time while copying it, so dumping
// never stalls the pipeline for more than one slot copy. All writer
// methods are no-ops on a nil *Recorder and for id 0, so instrumented code
// carries one possibly-nil recorder pointer and no conditionals.
//
// Deadline accounting runs on the *modelled* per-frame latencies (the
// deterministic device-clock stages, not wall time): the measure stage
// reports each delivered frame's client-side stage latencies via
// ObserveDeadline, and the recorder keeps miss counters, a consecutive-miss
// streak and a frame-latency histogram on an optional telemetry.Registry.
// Wall-clock spans recorded via Span are what the Perfetto export renders.
package frametrace

import (
	"sync"
	"sync/atomic"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/telemetry"
)

// MaxSpans bounds the spans one frame record can hold. The engine records
// one span per pipeline stage (server/client/measure) and stream sessions
// one per send, so 8 leaves room for finer-grained instrumentation without
// growing the ring's footprint.
const MaxSpans = 8

// DefaultFrames is the default ring capacity: enough to hold several GOPs
// of history around a deadline miss.
const DefaultFrames = 128

// DefaultDeadline is the paper's hard real-time budget: one 60 FPS frame.
// (Numerically equal to device.RealTimeDeadline; restated here so the
// package stays free of the device model.)
const DefaultDeadline = 16666 * time.Microsecond

// Span is one timed interval on a lane, offset from the recorder's epoch.
type Span struct {
	Lane  string
	Name  string
	Start time.Duration
	End   time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// StageLatency is one modelled stage duration passed to ObserveDeadline.
// Callers that must stay allocation-free slice a reusable array.
type StageLatency struct {
	Name string
	D    time.Duration
}

// record is the in-ring representation of one frame. Fixed-size so the
// whole ring is a single allocation at construction.
type record struct {
	ID           uint64
	Index        int
	Begin        time.Duration // offset of BeginFrame from the epoch
	RoI          frame.Rect
	CodedBytes   int
	NominalBytes int
	Frozen       bool
	Missed       bool
	Latency      time.Duration // modelled frame latency (ObserveDeadline)
	Slack        time.Duration // deadline − latency; negative on a miss
	Age          time.Duration // e2e frame age: server send → present (SetAge)
	ClientAgeP99 time.Duration // client-reported e2e p99 (SetClientStats)
	ClientDrops  uint32        // client-reported cumulative drops
	ClientMisses uint32        // client-reported cumulative deadline misses
	NSpans       int
	Spans        [MaxSpans]Span
}

// slot is one mutex-guarded ring entry.
type slot struct {
	mu  sync.Mutex
	rec record
}

// Config parameterises a Recorder.
type Config struct {
	// Frames is the ring capacity, rounded up to a power of two (default
	// DefaultFrames).
	Frames int
	// Deadline is the per-frame budget ObserveDeadline accounts against
	// (default DefaultDeadline, the 60 FPS frame time).
	Deadline time.Duration
	// Metrics, when non-nil, receives the SLO instruments (miss counters,
	// streak gauges, the frame-latency histogram). When nil the recorder
	// keeps a private registry so Report still works.
	Metrics *telemetry.Registry
	// Streaks, when non-nil, exports the recorder's deadline-miss streaks
	// through the set's aggregated (max-across-members) gauges instead of
	// per-recorder gauges on Metrics — required when several recorders
	// share one registry, where per-recorder gauges would be
	// last-writer-wins.
	Streaks *StreakSet
}

// Recorder is the flight recorder. The zero value is not useful — use New
// — but a nil *Recorder is a fully functional no-op.
type Recorder struct {
	epoch     time.Time
	epochUnix int64 // epoch as wall-clock UnixMicro, for cross-process alignment
	ring      []slot
	mask      uint64
	next      atomic.Uint64 // last issued frame ID (IDs start at 1)
	slo       slo

	// Cross-process identity (SetProcess/SetClockSync). Written once at
	// setup, read by Snapshot; atomics keep a late SetClockSync (after the
	// handshake) race-free against a concurrent dump.
	process  atomic.Pointer[string]
	clockOff atomic.Int64 // local clock − reference clock, µs
	clockRTT atomic.Int64 // RTT of the offset estimate, µs (error ≤ RTT/2)
}

// New builds a recorder. See Config for defaults.
func New(cfg Config) *Recorder {
	n := cfg.Frames
	if n <= 0 {
		n = DefaultFrames
	}
	// Round up to a power of two so slot lookup is a mask, not a modulo.
	size := 1
	for size < n {
		size <<= 1
	}
	now := time.Now()
	r := &Recorder{
		epoch:     now,
		epochUnix: now.UnixMicro(),
		ring:      make([]slot, size),
		mask:      uint64(size - 1),
	}
	r.slo.init(cfg)
	return r
}

// Deadline returns the per-frame budget the recorder accounts against
// (0 on a nil recorder).
func (r *Recorder) Deadline() time.Duration {
	if r == nil {
		return 0
	}
	return r.slo.deadline
}

// BeginFrame claims the next frame ID and resets its ring slot. Returns 0
// on a nil recorder; every other method treats id 0 as "not recording".
func (r *Recorder) BeginFrame(index int) uint64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	s := &r.ring[id&r.mask]
	s.mu.Lock()
	s.rec = record{ID: id, Index: index, Begin: time.Since(r.epoch)}
	s.mu.Unlock()
	r.slo.frames.Inc()
	return id
}

// BeginFrameAt claims a specific frame ID — the client-side half of the
// distributed trace adopts the server's flight ID from the FramePacket so
// the two processes' dumps correlate by identity (DESIGN.md §13). The
// recorder's ID counter advances to at least id so a later BeginFrame never
// reissues it. Falls back to BeginFrame when id is 0 (a server that records
// no flight sends no ID). Returns 0 on a nil recorder.
func (r *Recorder) BeginFrameAt(id uint64, index int) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		return r.BeginFrame(index)
	}
	for {
		cur := r.next.Load()
		if cur >= id || r.next.CompareAndSwap(cur, id) {
			break
		}
	}
	s := &r.ring[id&r.mask]
	s.mu.Lock()
	s.rec = record{ID: id, Index: index, Begin: time.Since(r.epoch)}
	s.mu.Unlock()
	r.slo.frames.Inc()
	return id
}

// SetProcess names the process track this recorder's dump renders under in
// a merged trace ("server", "client"). No-op on a nil recorder.
func (r *Recorder) SetProcess(name string) {
	if r == nil {
		return
	}
	r.process.Store(&name)
}

// SetClockSync records the handshake-measured clock offset (local − peer)
// and the RTT of the estimate, so merged dumps can rebase this recorder's
// wall-clock epoch onto the peer's clock with error bounded by RTT/2.
// No-op on a nil recorder.
func (r *Recorder) SetClockSync(offset, rtt time.Duration) {
	if r == nil {
		return
	}
	r.clockOff.Store(offset.Microseconds())
	r.clockRTT.Store(rtt.Microseconds())
}

// SetAge records frame id's end-to-end age: server send → client present,
// clock-offset-corrected. No-op on a nil recorder or id 0.
func (r *Recorder) SetAge(id uint64, age time.Duration) {
	s := r.slotFor(id)
	if s == nil {
		return
	}
	s.rec.Age = age
	s.mu.Unlock()
}

// SetClientStats annotates frame id with the latest client-reported
// backchannel stats (the server session pins them to the frame in flight
// when the Stats message arrived), so a flight dump shows what the client
// was experiencing around a server-side event. No-op on a nil recorder.
func (r *Recorder) SetClientStats(id uint64, ageP99 time.Duration, dropped, misses uint32) {
	s := r.slotFor(id)
	if s == nil {
		return
	}
	s.rec.ClientAgeP99 = ageP99
	s.rec.ClientDrops = dropped
	s.rec.ClientMisses = misses
	s.mu.Unlock()
}

// slotFor returns the locked slot for id, or nil when the slot has been
// reclaimed by a newer frame (ring wraparound under heavy lag) or id is 0.
// The caller must unlock a non-nil result.
func (r *Recorder) slotFor(id uint64) *slot {
	if r == nil || id == 0 {
		return nil
	}
	s := &r.ring[id&r.mask]
	s.mu.Lock()
	if s.rec.ID != id {
		s.mu.Unlock()
		return nil
	}
	return s
}

// Span records one wall-clock span for frame id: a stage execution that
// started at t0 and ran for d. Lane and name are kept distinct so lanes
// can carry heterogeneous events (the engine uses lane == stage name; the
// stream layer records "send"/"frame N"). Spans beyond MaxSpans are
// dropped. No-op on a nil recorder or id 0.
func (r *Recorder) Span(id uint64, lane, name string, t0 time.Time, d time.Duration) {
	s := r.slotFor(id)
	if s == nil {
		return
	}
	if s.rec.NSpans < MaxSpans {
		start := t0.Sub(r.epoch)
		s.rec.Spans[s.rec.NSpans] = Span{Lane: lane, Name: name, Start: start, End: start + d}
		s.rec.NSpans++
	}
	s.mu.Unlock()
}

// SetEncode attaches the server-side attributes of frame id: the detected
// RoI and the coded/nominal bitstream sizes. No-op on a nil recorder.
func (r *Recorder) SetEncode(id uint64, roi frame.Rect, codedBytes, nominalBytes int) {
	s := r.slotFor(id)
	if s == nil {
		return
	}
	s.rec.RoI = roi
	s.rec.CodedBytes = codedBytes
	s.rec.NominalBytes = nominalBytes
	s.mu.Unlock()
}

// SetFrozen marks frame id as lost in transit (the client froze the
// display). Frozen frames have no client-side stages and take no part in
// deadline accounting. No-op on a nil recorder.
func (r *Recorder) SetFrozen(id uint64) {
	s := r.slotFor(id)
	if s == nil {
		return
	}
	s.rec.Frozen = true
	s.mu.Unlock()
}

// LastID returns the most recently issued frame ID (0 on a nil recorder
// or before the first BeginFrame) — how control-plane decisions (admission,
// shedding) stamp their log lines with the frame they reacted to.
func (r *Recorder) LastID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// MissStreak returns the current consecutive deadline-miss streak — the
// load-shedding controller's input (0 on a nil recorder).
func (r *Recorder) MissStreak() int64 {
	if r == nil {
		return 0
	}
	return r.slo.curStreak.Load()
}

// WindowLatencies appends the modelled latencies of the delivered frames
// currently in the ring to buf and returns it — the recorder's sliding
// latency window, from which admission control computes a live p99 without
// the shared all-time histogram. Locks one slot at a time, so it never
// stalls the recording path for more than one slot copy.
func (r *Recorder) WindowLatencies(buf []time.Duration) []time.Duration {
	if r == nil {
		return buf
	}
	for i := range r.ring {
		s := &r.ring[i]
		s.mu.Lock()
		if s.rec.ID != 0 && !s.rec.Frozen && s.rec.Latency > 0 {
			buf = append(buf, s.rec.Latency)
		}
		s.mu.Unlock()
	}
	return buf
}

// ObserveDeadline accounts frame id's modelled client-side latency against
// the deadline: the frame latency is the sum of stages, a miss is charged
// to the largest stage, and the streak/histogram instruments update. Must
// be called in frame order from a single goroutine (the engine's measure
// stage) for the consecutive-miss streak to be meaningful. The stages
// slice is only read during the call, so callers may reuse a scratch
// array. No-op on a nil recorder or id 0.
func (r *Recorder) ObserveDeadline(id uint64, stages []StageLatency) {
	if r == nil || id == 0 {
		return
	}
	var total time.Duration
	worst := -1
	for i, st := range stages {
		total += st.D
		if worst < 0 || st.D > stages[worst].D {
			worst = i
		}
	}
	slack := r.slo.deadline - total
	missed := slack < 0
	if s := r.slotFor(id); s != nil {
		s.rec.Latency = total
		s.rec.Slack = slack
		s.rec.Missed = missed
		s.mu.Unlock()
	}
	r.slo.observe(total, missed, stages, worst)
}
