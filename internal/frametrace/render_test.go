package frametrace_test

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"gamestreamsr/internal/frametrace"
)

// hostileTrace made `gssr trace` index column −71: its first span's dur
// does not fit a time.Duration.
const hostileTrace = `{"traceEvents":[{"name":"a","ph":"X","ts":70,"dur":1e300,"pid":1,"tid":1},{"name":"b","ph":"X","ts":5,"dur":1,"pid":1,"tid":2}]}`

// dumpOf wraps spans as a one-frame dump, the shape extgantt renders.
func dumpOf(spans ...frametrace.Span) *frametrace.Dump {
	return &frametrace.Dump{Frames: []frametrace.DumpFrame{{Spans: spans}}}
}

func render(t *testing.T, d *frametrace.Dump, width int) string {
	t.Helper()
	var sb strings.Builder
	if err := d.Render(&sb, width); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// barOf extracts the characters between the pipes of render row i.
func barOf(t *testing.T, out string, i int) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if i >= len(lines) {
		t.Fatalf("no row %d in:\n%s", i, out)
	}
	open := strings.IndexByte(lines[i], '|')
	close := strings.LastIndexByte(lines[i], '|')
	if open < 0 || close <= open {
		t.Fatalf("row %d has no bar: %q", i, lines[i])
	}
	return lines[i][open+1 : close]
}

func TestDumpRender(t *testing.T) {
	out := render(t, dumpOf(
		frametrace.Span{Lane: "npu", Name: "sr", End: 10 * time.Millisecond},
		frametrace.Span{Lane: "gpu", Name: "bilinear", End: 2 * time.Millisecond},
	), 40)
	if !strings.Contains(out, "npu") || !strings.Contains(out, "gpu") {
		t.Errorf("missing lanes:\n%s", out)
	}
	// The npu bar must be longer than the gpu bar.
	if strings.Count(barOf(t, out, 0), "s") <= strings.Count(barOf(t, out, 1), "b") {
		t.Errorf("bar lengths don't reflect durations:\n%s", out)
	}
}

// TestDumpRenderLaneOrder: one row per lane in first-appearance order, across
// frames.
func TestDumpRenderLaneOrder(t *testing.T) {
	d := &frametrace.Dump{Frames: []frametrace.DumpFrame{
		{Spans: []frametrace.Span{{Lane: "b", Name: "x", End: 1}, {Lane: "a", Name: "y", End: 1}}},
		{Spans: []frametrace.Span{{Lane: "b", Name: "z", Start: 1, End: 2}, {Lane: "c", Name: "w", Start: 1, End: 2}}},
	}}
	lines := strings.Split(strings.TrimSpace(render(t, d, 20)), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 3 lane rows and a footer:\n%s", strings.Join(lines, "\n"))
	}
	for i, lane := range []string{"b |", "a |", "c |"} {
		if !strings.HasPrefix(lines[i], lane) {
			t.Errorf("row %d = %q, want lane %q", i, lines[i], lane)
		}
	}
}

func TestDumpRenderEmpty(t *testing.T) {
	for _, d := range []*frametrace.Dump{
		{},
		dumpOf(),
		dumpOf(frametrace.Span{Lane: "l", Name: "a", Start: time.Millisecond, End: time.Millisecond}),
	} {
		if out := render(t, d, 40); out != "(empty timeline)\n" {
			t.Errorf("empty render = %q", out)
		}
	}
}

func TestDumpRenderNarrowWidthClamped(t *testing.T) {
	out := render(t, dumpOf(frametrace.Span{Lane: "l", Name: "a", End: time.Millisecond}), 1)
	// Any width below 20 is raised to 20 columns between the pipes.
	if bar := barOf(t, out, 0); len(bar) != 20 {
		t.Errorf("bar width = %d, want clamped 20:\n%s", len(bar), out)
	}
}

func TestDumpRenderSingleEvent(t *testing.T) {
	out := render(t, dumpOf(frametrace.Span{Lane: "npu", Name: "sr", Start: 2 * time.Millisecond, End: 6 * time.Millisecond}), 30)
	// A lone span covers the whole scale: the bar is solid marks.
	bar := barOf(t, out, 0)
	if got := strings.Count(bar, "s"); got != len(bar) {
		t.Errorf("single event fills %d/%d columns:\n%s", got, len(bar), out)
	}
	if !strings.Contains(out, "2.0ms → 6.0ms") {
		t.Errorf("footer should show the span bounds:\n%s", out)
	}
}

// TestDumpRenderFooterSpansAllFrames: the window runs from the earliest
// start to the latest end over every frame's spans.
func TestDumpRenderFooterSpansAllFrames(t *testing.T) {
	d := &frametrace.Dump{Frames: []frametrace.DumpFrame{
		{Spans: []frametrace.Span{{Lane: "l", Name: "a", Start: 3 * time.Millisecond, End: 9 * time.Millisecond}}},
		{Spans: []frametrace.Span{{Lane: "l", Name: "b", Start: time.Millisecond, End: 5 * time.Millisecond}}},
	}}
	if out := render(t, d, 20); !strings.Contains(out, "1.0ms → 9.0ms") {
		t.Errorf("footer should span 1–9 ms:\n%s", out)
	}
}

func TestDumpRenderClampsRightEdge(t *testing.T) {
	const width = 24
	out := render(t, dumpOf(
		// The longest span scales to exactly `width` columns and must be
		// clamped into the last cell rather than writing past the row.
		frametrace.Span{Lane: "a", Name: "x", End: 10 * time.Millisecond},
		// A zero-duration span at the right edge lands in the last cell.
		frametrace.Span{Lane: "b", Name: "y", Start: 10 * time.Millisecond, End: 10 * time.Millisecond},
	), width)
	barA, barB := barOf(t, out, 0), barOf(t, out, 1)
	if len(barA) != width || len(barB) != width {
		t.Fatalf("bar widths = %d,%d, want %d:\n%s", len(barA), len(barB), width, out)
	}
	if barA[width-1] != 'x' {
		t.Errorf("long span should reach the clamped right edge:\n%s", out)
	}
	if barB[width-1] != 'y' || strings.Count(barB, "y") != 1 {
		t.Errorf("zero-duration span at the edge should mark exactly the last cell:\n%s", out)
	}
}

// TestDumpRenderSwappedSpan: a span whose End precedes its Start is drawn
// as the interval it names.
func TestDumpRenderSwappedSpan(t *testing.T) {
	fwd := render(t, dumpOf(
		frametrace.Span{Lane: "l", Name: "x", Start: 2 * time.Millisecond, End: 5 * time.Millisecond},
		frametrace.Span{Lane: "m", Name: "y", End: 10 * time.Millisecond},
	), 30)
	swapped := render(t, dumpOf(
		frametrace.Span{Lane: "l", Name: "x", Start: 5 * time.Millisecond, End: 2 * time.Millisecond},
		frametrace.Span{Lane: "m", Name: "y", End: 10 * time.Millisecond},
	), 30)
	if fwd != swapped {
		t.Errorf("swapped span renders differently:\n%s\nvs\n%s", swapped, fwd)
	}
}

// TestDumpRenderClampsColumns draws spans whose window overflows a
// time.Duration (what the hostile trace used to parse into): every column
// stays inside the row.
func TestDumpRenderClampsColumns(t *testing.T) {
	out := render(t, dumpOf(
		frametrace.Span{Lane: "a", Name: "a", Start: 70 * time.Microsecond, End: 70*time.Microsecond + math.MinInt64},
		frametrace.Span{Lane: "b", Name: "b", Start: 5 * time.Microsecond, End: 6 * time.Microsecond},
		frametrace.Span{Lane: "c", Name: "c", Start: math.MaxInt64 - 1, End: math.MaxInt64},
	), 40)
	for i := 0; i < 3; i++ {
		if bar := barOf(t, out, i); len(bar) != 40 {
			t.Errorf("row %d is %d columns, want 40:\n%s", i, len(bar), out)
		}
	}
}

// TestParseChromeTraceRejectsHostileTimes: a time that does not fit the
// format's exact range, a negative duration and a frame id outside uint64
// are errors, not spans.
func TestParseChromeTraceRejectsHostileTimes(t *testing.T) {
	span := func(fields string) string {
		return `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1,` + fields + `}]}`
	}
	for _, in := range []string{
		hostileTrace,
		span(`"ts":1e300,"dur":1`),
		span(`"ts":-1e300,"dur":1`),
		span(`"ts":3e12,"dur":1`),
		span(`"ts":1,"dur":-1`),
		span(`"ts":1,"dur":3e12`),
		span(`"ts":1,"dur":1,"args":{"frame_id":-1}`),
		span(`"ts":1,"dur":1,"args":{"frame_id":1e30}`),
		span(`"ts":1,"dur":1,"args":{"frame_id":1,"latency_us":1e300}`),
	} {
		if dumps, err := frametrace.ParseChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s parsed into %+v, want an error", in, dumps)
		}
	}
	// The edges of the exact range still parse.
	if _, err := frametrace.ParseChromeTrace(strings.NewReader(span(`"ts":-2e12,"dur":2e12`))); err != nil {
		t.Errorf("in-range span refused: %v", err)
	}
}

// FuzzParseChromeTrace: no input makes parse-then-Render panic, and a parsed
// trace re-written and re-parsed comes back equal.
func FuzzParseChromeTrace(f *testing.F) {
	f.Add([]byte(hostileTrace))
	f.Add([]byte(`{"traceEvents":[]}`))
	r := frametrace.New(frametrace.Config{})
	r.SetProcess("pipeline")
	r.SetClockSync(3*time.Millisecond, time.Millisecond)
	lat := [1]frametrace.StageLatency{{Name: "s", D: 20 * time.Millisecond}}
	for i := 0; i < 3; i++ {
		id := recordFrame(r, i, lat)
		r.SetAge(id, time.Duration(i)*time.Millisecond)
		r.SetClientStats(id, 5*time.Millisecond, 1, 2)
	}
	var seed bytes.Buffer
	if err := r.WriteFlight(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		dumps, err := frametrace.ParseChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, nd := range dumps {
			if err := nd.Dump.Render(io.Discard, 72); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := frametrace.WriteChromeTraces(&buf, dumps); err != nil {
			t.Fatal(err)
		}
		again, err := frametrace.ParseChromeTrace(&buf)
		if err != nil {
			t.Fatalf("re-parse of a written trace: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(dumps, again) {
			t.Fatalf("round trip changed the dump:\n got %+v\nwant %+v", again, dumps)
		}
	})
}
