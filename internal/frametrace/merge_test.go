package frametrace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestBeginFrameAt covers the client-side half of ID propagation: adopting
// a server-assigned frame ID, advancing the local counter past it, and the
// fallback for a packet without one.
func TestBeginFrameAt(t *testing.T) {
	r := New(Config{Frames: 8})
	if got := r.BeginFrameAt(5, 0); got != 5 {
		t.Fatalf("BeginFrameAt(5) = %d", got)
	}
	if r.LastID() != 5 {
		t.Fatalf("LastID = %d, want 5", r.LastID())
	}
	// A later local BeginFrame must not reissue an adopted ID.
	if got := r.BeginFrame(1); got != 6 {
		t.Fatalf("BeginFrame after adoption = %d, want 6", got)
	}
	// Adopting an older ID must not move the counter backwards.
	if got := r.BeginFrameAt(2, 2); got != 2 {
		t.Fatalf("BeginFrameAt(2) = %d", got)
	}
	if r.LastID() != 6 {
		t.Fatalf("LastID = %d, want 6 after adopting an older ID", r.LastID())
	}
	// ID 0 (a server recording no flight sends none) falls back to local allocation.
	if got := r.BeginFrameAt(0, 3); got != 7 {
		t.Fatalf("BeginFrameAt(0) = %d, want 7", got)
	}
	var nilRec *Recorder
	if got := nilRec.BeginFrameAt(9, 0); got != 0 {
		t.Fatalf("nil recorder BeginFrameAt = %d", got)
	}
}

// TestClientAnnotationsRoundTrip pushes the new per-frame fields (e2e age,
// backchannel stats) and the recorder clock metadata through Snapshot and
// the Chrome trace encode/decode cycle.
func TestClientAnnotationsRoundTrip(t *testing.T) {
	r := New(Config{Frames: 8})
	r.SetProcess("client")
	r.SetClockSync(1500*time.Microsecond, 800*time.Microsecond)
	id := r.BeginFrameAt(3, 0)
	r.Span(id, "present", "present", time.Now(), 0)
	r.SetAge(id, ms(21))
	r.SetClientStats(id, ms(30), 2, 5)

	d := r.Snapshot()
	if d.Process != "client" {
		t.Fatalf("process = %q", d.Process)
	}
	if d.EpochUnixMicro == 0 {
		t.Fatal("snapshot lost the recorder epoch")
	}
	if d.ClockOffsetMicro != 1500 || d.ClockRTTMicro != 800 {
		t.Fatalf("clock = %d/%d", d.ClockOffsetMicro, d.ClockRTTMicro)
	}
	if len(d.Frames) != 1 {
		t.Fatalf("%d frames", len(d.Frames))
	}
	f := d.Frames[0]
	if f.Age != ms(21) || f.ClientAgeP99 != ms(30) || f.ClientDrops != 2 || f.ClientMisses != 5 {
		t.Fatalf("frame annotations = %+v", f)
	}

	var buf bytes.Buffer
	if err := WriteChromeTraces(&buf, []NamedDump{{Name: d.Process, Dump: d}}); err != nil {
		t.Fatal(err)
	}
	back, err := ParseChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 {
		t.Fatalf("%d processes", len(back))
	}
	bd := back[0].Dump
	if bd.EpochUnixMicro != d.EpochUnixMicro || bd.ClockOffsetMicro != 1500 || bd.ClockRTTMicro != 800 {
		t.Fatalf("clock metadata lost: %+v", bd)
	}
	bf := bd.Frames[0]
	if bf.ID != f.ID || bf.Age != f.Age || bf.ClientAgeP99 != f.ClientAgeP99 ||
		bf.ClientDrops != f.ClientDrops || bf.ClientMisses != f.ClientMisses {
		t.Fatalf("parsed frame = %+v, want %+v", bf, f)
	}
}

// twoProcessDumps builds a deterministic server+client dump pair: the
// client's clock runs 1.5ms ahead of the server's, its recorder epoch is
// 2ms after the server's on its own clock (so 0.5ms in server time), and
// frame 5 is sent at server +10ms and presented at client-aligned +18ms.
func twoProcessDumps() []NamedDump {
	server := &Dump{
		Process:        "server",
		EpochUnixMicro: 1_000_000_000,
		Frames: []DumpFrame{
			{ID: 5, Index: 4, CodedBytes: 1000, Spans: []Span{
				{Lane: "source", Name: "source", Start: ms(8), End: ms(9)},
				{Lane: "send", Name: "send", Start: ms(10), End: ms(12)},
			}},
			{ID: 6, Index: 5, CodedBytes: 900, Spans: []Span{
				{Lane: "send", Name: "send", Start: ms(26), End: ms(27)},
			}},
		},
	}
	client := &Dump{
		Process:          "client",
		EpochUnixMicro:   1_000_002_000,
		ClockOffsetMicro: 1500,
		ClockRTTMicro:    800,
		Frames: []DumpFrame{
			{ID: 5, Index: 4, Age: ms(8), Spans: []Span{
				{Lane: "decode", Name: "decode", Start: ms(12), End: ms(14)},
				{Lane: "present", Name: "present", Start: 17500 * time.Microsecond, End: 17500 * time.Microsecond},
			}},
			{ID: 7, Index: 6, Spans: []Span{ // only on the client: no correlation row
				{Lane: "present", Name: "present", Start: ms(40), End: ms(40)},
			}},
		},
	}
	return []NamedDump{{Name: "server", Dump: server}, {Name: "client", Dump: client}}
}

func TestAlignDumps(t *testing.T) {
	dumps := twoProcessDumps()
	aligned := AlignDumps(dumps)
	// The client's reference-clock epoch is 1_000_002_000 − 1500 =
	// 1_000_000_500: 500µs after the server's, which becomes the base.
	if got := aligned[0].Dump.EpochUnixMicro; got != 1_000_000_000 {
		t.Fatalf("server epoch = %d", got)
	}
	if got := aligned[1].Dump.EpochUnixMicro; got != 1_000_000_000 {
		t.Fatalf("client epoch = %d, want rebased to the server's", got)
	}
	if aligned[1].Dump.ClockOffsetMicro != 0 {
		t.Fatal("aligned client dump should carry no residual offset")
	}
	// Server spans unshifted; client spans shifted by +500µs.
	if s := aligned[0].Dump.Frames[0].Spans[1]; s.Start != ms(10) {
		t.Fatalf("server send start = %v", s.Start)
	}
	if s := aligned[1].Dump.Frames[0].Spans[0]; s.Start != ms(12)+500*time.Microsecond {
		t.Fatalf("client decode start = %v", s.Start)
	}
	// The input must not be mutated.
	if s := dumps[1].Dump.Frames[0].Spans[0]; s.Start != ms(12) {
		t.Fatalf("AlignDumps mutated its input: %v", s.Start)
	}
	// Idempotent: aligning an aligned set is a no-op.
	again := AlignDumps(aligned)
	if s := again[1].Dump.Frames[0].Spans[0]; s != aligned[1].Dump.Frames[0].Spans[0] {
		t.Fatalf("alignment not idempotent: %+v", s)
	}
}

func TestCorrelate(t *testing.T) {
	aligned := AlignDumps(twoProcessDumps())
	corr := Correlate(aligned[0].Dump, aligned[1].Dump)
	if len(corr) != 1 {
		t.Fatalf("correlated %d frames, want 1 (ID 6 is server-only, 7 client-only)", len(corr))
	}
	c := corr[0]
	if c.ID != 5 || c.Index != 4 {
		t.Fatalf("correlation = %+v", c)
	}
	if c.ServerSend != ms(10) {
		t.Fatalf("server send = %v", c.ServerSend)
	}
	// Client present at 17.5ms on the client epoch, +500µs alignment = 18ms.
	if c.ClientPresent != ms(18) {
		t.Fatalf("client present = %v", c.ClientPresent)
	}
	if c.Age != ms(8) {
		t.Fatalf("age = %v", c.Age)
	}
}

// TestMergedTraceGolden pins the merged two-process Perfetto export
// byte-for-byte (JSON map keys are sorted, so the encoding is
// deterministic). Regenerate with `go test ./internal/frametrace -run
// Golden -update`.
func TestMergedTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraces(&buf, AlignDumps(twoProcessDumps())); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "merged_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("merged trace drifted from %s (re-run with -update if intended)\n got: %s", golden, buf.Bytes())
	}
	// And the golden file still parses back into two aligned processes.
	dumps, err := ParseChromeTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 2 || dumps[0].Name != "server" || dumps[1].Name != "client" {
		t.Fatalf("golden processes = %+v", dumps)
	}
}
