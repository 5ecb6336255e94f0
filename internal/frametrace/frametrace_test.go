package frametrace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

// recordFrame runs the full per-frame writer path for one frame: begin,
// three stage spans, encode attributes and deadline accounting.
func recordFrame(r *frametrace.Recorder, idx int, lat [1]frametrace.StageLatency) uint64 {
	id := r.BeginFrame(idx)
	t0 := time.Now()
	r.Span(id, "server", "server", t0, time.Millisecond)
	r.Span(id, "client", "client", t0.Add(time.Millisecond), time.Millisecond)
	r.Span(id, "measure", "measure", t0.Add(2*time.Millisecond), time.Millisecond)
	r.SetEncode(id, frame.Rect{X: 1, Y: 2, W: 36, H: 36}, 100+idx, 200+idx)
	r.ObserveDeadline(id, lat[:])
	return id
}

func TestRingCapRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, frametrace.DefaultFrames}, {1, 1}, {5, 8}, {8, 8}, {100, 128},
	} {
		if got := frametrace.New(frametrace.Config{Frames: tc.in}).Cap(); got != tc.want {
			t.Errorf("Cap(Frames=%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRingWraparound asserts the flight window semantics: after recording
// more frames than the ring holds, Snapshot returns exactly the last Cap()
// frames, oldest first, each with its full span set and attributes.
func TestRingWraparound(t *testing.T) {
	r := frametrace.New(frametrace.Config{Frames: 8, Deadline: time.Second})
	lat := [1]frametrace.StageLatency{{Name: "total", D: time.Millisecond}}
	const n = 21
	for i := 0; i < n; i++ {
		recordFrame(r, i, lat)
	}
	d := r.Snapshot()
	if len(d.Frames) != r.Cap() {
		t.Fatalf("snapshot holds %d frames, want %d", len(d.Frames), r.Cap())
	}
	for i, f := range d.Frames {
		wantID := uint64(n - r.Cap() + i + 1)
		if f.ID != wantID {
			t.Errorf("frame %d: ID %d, want %d", i, f.ID, wantID)
		}
		if f.Index != int(wantID)-1 {
			t.Errorf("frame %d: index %d, want %d", i, f.Index, wantID-1)
		}
		if len(f.Spans) != 3 {
			t.Errorf("frame %d: %d spans, want 3", i, len(f.Spans))
		}
		if f.CodedBytes != 100+f.Index || f.RoI.W != 36 {
			t.Errorf("frame %d: attributes lost: %+v", i, f)
		}
	}
}

// TestStaleWritesDropped asserts writes against a reclaimed frame ID are
// discarded instead of corrupting the newer occupant of the slot.
func TestStaleWritesDropped(t *testing.T) {
	r := frametrace.New(frametrace.Config{Frames: 4})
	first := r.BeginFrame(0)
	for i := 1; i <= r.Cap(); i++ { // wraps: slot of `first` now holds a newer frame
		r.BeginFrame(i)
	}
	r.SetEncode(first, frame.Rect{W: 99, H: 99}, 999, 999)
	r.Span(first, "ghost", "ghost", time.Now(), time.Millisecond)
	for _, f := range r.Snapshot().Frames {
		if f.CodedBytes == 999 || len(f.Spans) > 0 && f.Spans[0].Lane == "ghost" {
			t.Fatalf("stale write leaked into frame %d: %+v", f.ID, f)
		}
	}
}

func TestSpanOverflowDropped(t *testing.T) {
	r := frametrace.New(frametrace.Config{})
	id := r.BeginFrame(0)
	for i := 0; i < frametrace.MaxSpans+3; i++ {
		r.Span(id, "lane", fmt.Sprintf("s%d", i), time.Now(), time.Millisecond)
	}
	if got := len(r.Snapshot().Frames[0].Spans); got != frametrace.MaxSpans {
		t.Fatalf("kept %d spans, want cap %d", got, frametrace.MaxSpans)
	}
}

// TestNilRecorder pins the no-op contract: instrumented code carries one
// possibly-nil pointer and never branches.
func TestNilRecorder(t *testing.T) {
	var r *frametrace.Recorder
	if id := r.BeginFrame(0); id != 0 {
		t.Fatalf("nil BeginFrame = %d, want 0", id)
	}
	r.Span(1, "l", "n", time.Now(), time.Millisecond)
	r.SetEncode(1, frame.Rect{}, 0, 0)
	r.SetFrozen(1)
	r.ObserveDeadline(1, nil)
	if r.Cap() != 0 || r.Deadline() != 0 {
		t.Fatal("nil recorder reports non-zero capacity/deadline")
	}
	if rep := r.Report(); rep != (frametrace.Report{}) {
		t.Fatalf("nil Report = %+v, want zero", rep)
	}
	if d := r.Snapshot(); len(d.Frames) != 0 {
		t.Fatalf("nil Snapshot has %d frames", len(d.Frames))
	}
	var buf bytes.Buffer
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil WriteFlight wrote invalid JSON: %s", buf.Bytes())
	}
}

// TestConcurrentWriters exercises the per-slot locking under -race: many
// goroutines record independent frames while one dumps continuously. The
// assertions are the snapshot invariants — strictly increasing IDs, span
// counts within bounds — and the race detector proves the synchronisation.
func TestConcurrentWriters(t *testing.T) {
	r := frametrace.New(frametrace.Config{Frames: 16, Deadline: time.Millisecond})
	const writers, perWriter = 8, 200
	var writersWG, dumperWG sync.WaitGroup
	stop := make(chan struct{})
	var dumpErr error
	dumperWG.Add(1)
	go func() { // dump-while-recording
		defer dumperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := r.Snapshot()
			prev := uint64(0)
			for _, f := range d.Frames {
				if f.ID <= prev {
					dumpErr = fmt.Errorf("snapshot IDs not increasing: %d after %d", f.ID, prev)
					return
				}
				prev = f.ID
				if len(f.Spans) > frametrace.MaxSpans {
					dumpErr = fmt.Errorf("frame %d has %d spans", f.ID, len(f.Spans))
					return
				}
			}
			if err := r.WriteFlight(&bytes.Buffer{}); err != nil {
				dumpErr = err
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			lat := [1]frametrace.StageLatency{{Name: "stage", D: 2 * time.Millisecond}}
			for i := 0; i < perWriter; i++ {
				recordFrame(r, w*perWriter+i, lat)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { writersWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent writers deadlocked")
	}
	close(stop)
	dumperWG.Wait()
	if dumpErr != nil {
		t.Fatal(dumpErr)
	}
	rep := r.Report()
	if rep.Frames != writers*perWriter {
		t.Fatalf("frames counter = %d, want %d", rep.Frames, writers*perWriter)
	}
}

// TestSLOAccounting pins the deadline tracker: miss counts, per-stage
// attribution, streak bookkeeping and the histogram-derived percentiles.
func TestSLOAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	var missed []uint64
	r := frametrace.New(frametrace.Config{
		Deadline: 10 * time.Millisecond,
		Metrics:  reg,
		OnMiss:   func(id uint64, slack time.Duration) { missed = append(missed, id) },
	})
	obs := func(decode, upscale time.Duration) {
		id := r.BeginFrame(0)
		r.ObserveDeadline(id, []frametrace.StageLatency{
			{Name: "decode", D: decode}, {Name: "upscale", D: upscale},
		})
	}
	obs(2*time.Millisecond, 20*time.Millisecond) // miss, upscale's fault
	obs(15*time.Millisecond, 3*time.Millisecond) // miss, decode's fault
	obs(2*time.Millisecond, 2*time.Millisecond)  // hit: streak resets
	obs(1*time.Millisecond, 30*time.Millisecond) // miss, upscale's fault
	rep := r.Report()
	if rep.Frames != 4 || rep.Delivered != 4 || rep.Misses != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LongestStreak != 2 || rep.CurrentStreak != 1 {
		t.Errorf("streaks = %d/%d, want current 1, longest 2", rep.CurrentStreak, rep.LongestStreak)
	}
	if got := rep.MissRate(); got != 0.75 {
		t.Errorf("miss rate = %v, want 0.75", got)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.P999 < rep.P99 {
		t.Errorf("percentiles not ordered: p50 %v, p99 %v, p99.9 %v", rep.P50, rep.P99, rep.P999)
	}
	s := reg.Snapshot()
	if got := s.Counter("frametrace_deadline_miss_upscale_total"); got != 2 {
		t.Errorf("upscale misses = %d, want 2", got)
	}
	if got := s.Counter("frametrace_deadline_miss_decode_total"); got != 1 {
		t.Errorf("decode misses = %d, want 1", got)
	}
	if len(missed) != 3 {
		t.Errorf("OnMiss fired %d times, want 3", len(missed))
	}
	// The dump carries the verdicts: slack sign must match the miss flag.
	for _, f := range r.Snapshot().Frames {
		if f.Missed != (f.Slack < 0) {
			t.Errorf("frame %d: missed=%v but slack=%v", f.ID, f.Missed, f.Slack)
		}
	}
}

// TestFrozenFramesExcluded asserts lost-in-transit frames count as begun
// but take no part in deadline accounting.
func TestFrozenFramesExcluded(t *testing.T) {
	r := frametrace.New(frametrace.Config{})
	id := r.BeginFrame(0)
	r.SetFrozen(id)
	lat := [1]frametrace.StageLatency{{Name: "s", D: time.Millisecond}}
	recordFrame(r, 1, lat)
	rep := r.Report()
	if rep.Frames != 2 || rep.Delivered != 1 {
		t.Fatalf("frames/delivered = %d/%d, want 2/1", rep.Frames, rep.Delivered)
	}
	if !r.Snapshot().Frames[0].Frozen {
		t.Fatal("frozen flag lost")
	}
}

// TestChromeTraceRoundTrip proves the exporter and parser share one model:
// a dump written as Chrome trace-event JSON parses back with every frame
// attribute and span intact (to the format's microsecond resolution).
func TestChromeTraceRoundTrip(t *testing.T) {
	r := frametrace.New(frametrace.Config{Deadline: 10 * time.Millisecond})
	lat := [1]frametrace.StageLatency{{Name: "upscale", D: 25 * time.Millisecond}}
	for i := 0; i < 3; i++ {
		recordFrame(r, i, lat)
	}
	orig := r.Snapshot()
	orig.Process = "pipeline"

	var buf bytes.Buffer
	if err := orig.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	dumps, err := frametrace.ParseChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || dumps[0].Name != "pipeline" {
		t.Fatalf("parsed %d dumps (%v), want 1 named pipeline", len(dumps), dumps)
	}
	got := dumps[0].Dump
	if len(got.Frames) != len(orig.Frames) {
		t.Fatalf("parsed %d frames, want %d", len(got.Frames), len(orig.Frames))
	}
	const tol = time.Microsecond
	for i, g := range got.Frames {
		w := orig.Frames[i]
		if g.ID != w.ID || g.Index != w.Index || g.RoI != w.RoI ||
			g.CodedBytes != w.CodedBytes || g.NominalBytes != w.NominalBytes ||
			g.Frozen != w.Frozen || g.Missed != w.Missed {
			t.Errorf("frame %d attributes: got %+v, want %+v", i, g, w)
		}
		if d := g.Latency - w.Latency; d < -tol || d > tol {
			t.Errorf("frame %d latency drifted %v", i, d)
		}
		if len(g.Spans) != len(w.Spans) {
			t.Fatalf("frame %d: %d spans, want %d", i, len(g.Spans), len(w.Spans))
		}
		for j, gs := range g.Spans {
			ws := w.Spans[j]
			if gs.Lane != ws.Lane || gs.Name != ws.Name {
				t.Errorf("frame %d span %d: %s/%s, want %s/%s", i, j, gs.Lane, gs.Name, ws.Lane, ws.Name)
			}
			if d := gs.Start - ws.Start; d < -tol || d > tol {
				t.Errorf("frame %d span %d start drifted %v", i, j, d)
			}
		}
	}
}

// TestChromeTraceShape pins the fields Perfetto requires of the payload:
// a traceEvents array of ph X/M events with ts/dur/pid/tid, process and
// thread metadata, and the frame attributes in args.
func TestChromeTraceShape(t *testing.T) {
	r := frametrace.New(frametrace.Config{Deadline: time.Millisecond})
	lat := [1]frametrace.StageLatency{{Name: "send", D: 2 * time.Millisecond}}
	recordFrame(r, 0, lat)
	var buf bytes.Buffer
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("payload is not valid JSON: %v", err)
	}
	if ct.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", ct.Unit)
	}
	var meta, spans int
	for _, ev := range ct.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			spans++
			for _, k := range []string{"ts", "pid", "tid", "name"} {
				if _, ok := ev[k]; !ok {
					t.Errorf("span event missing %q: %v", k, ev)
				}
			}
			args, _ := ev["args"].(map[string]any)
			for _, k := range []string{"frame_id", "roi_w", "coded_bytes", "slack_us", "missed"} {
				if _, ok := args[k]; !ok {
					t.Errorf("span args missing %q: %v", k, args)
				}
			}
		default:
			t.Errorf("unexpected ph %v", ev["ph"])
		}
	}
	if meta < 2 || spans != 3 {
		t.Errorf("events: %d metadata, %d spans (want >=2, 3)", meta, spans)
	}
}

// TestWriteChromeTracesMultiProcess asserts a multi-session export keeps
// the sessions apart as Perfetto processes and the parser recovers both.
func TestWriteChromeTracesMultiProcess(t *testing.T) {
	mk := func(n int) *frametrace.Dump {
		r := frametrace.New(frametrace.Config{})
		lat := [1]frametrace.StageLatency{{Name: "send", D: time.Millisecond}}
		for i := 0; i < n; i++ {
			recordFrame(r, i, lat)
		}
		return r.Snapshot()
	}
	var buf bytes.Buffer
	err := frametrace.WriteChromeTraces(&buf, []frametrace.NamedDump{
		{Name: "10.0.0.1:100", Dump: mk(2)},
		{Name: "10.0.0.2:200", Dump: mk(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	dumps, err := frametrace.ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 {
		t.Fatalf("parsed %d dumps, want 2", len(dumps))
	}
	if dumps[0].Name != "10.0.0.1:100" || len(dumps[0].Dump.Frames) != 2 ||
		dumps[1].Name != "10.0.0.2:200" || len(dumps[1].Dump.Frames) != 3 {
		t.Fatalf("dumps = %v / %v", dumps[0], dumps[1])
	}
}

// TestRecorderHotPathAllocs is the allocation-free contract, measured
// exactly: the full per-frame writer path must not allocate.
func TestRecorderHotPathAllocs(t *testing.T) {
	r := frametrace.New(frametrace.Config{Frames: 32})
	lat := [1]frametrace.StageLatency{{Name: "upscale", D: 20 * time.Millisecond}}
	idx := 0
	got := testing.AllocsPerRun(500, func() {
		recordFrame(r, idx, lat)
		idx++
	})
	if got != 0 {
		t.Fatalf("recorder hot path allocates %.1f objects/frame, want 0", got)
	}
}

// BenchmarkRecorderFrame times the full per-frame writer path — the number
// CI's bench smoke watches (and BENCH_frametrace.json records).
func BenchmarkRecorderFrame(b *testing.B) {
	r := frametrace.New(frametrace.Config{})
	lat := [1]frametrace.StageLatency{{Name: "upscale", D: 5 * time.Millisecond}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recordFrame(r, i, lat)
	}
}

// BenchmarkSnapshot times dumping a full window while nothing writes.
func BenchmarkSnapshot(b *testing.B) {
	r := frametrace.New(frametrace.Config{})
	lat := [1]frametrace.StageLatency{{Name: "s", D: time.Millisecond}}
	for i := 0; i < r.Cap(); i++ {
		recordFrame(r, i, lat)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := r.Snapshot(); len(d.Frames) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
