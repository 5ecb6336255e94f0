package frametrace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"gamestreamsr/internal/frame"
)

// This file is the recorder's interchange layer: Snapshot copies the live
// ring into a Dump, Dump serialises to the Chrome trace-event JSON that
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly, and
// Dump.Render draws the same spans as an ASCII Gantt chart.

// DumpFrame is one frame of a Dump: the stable copy of a ring record.
type DumpFrame struct {
	ID           uint64
	Index        int
	RoI          frame.Rect
	CodedBytes   int
	NominalBytes int
	Frozen       bool
	Missed       bool
	Latency      time.Duration
	Slack        time.Duration
	Age          time.Duration // e2e server-send → present age (client dumps)
	ClientAgeP99 time.Duration // backchannel-reported e2e p99 (server dumps)
	ClientDrops  uint32
	ClientMisses uint32
	Spans        []Span
}

// Dump is a captured flight-recorder window, oldest frame first.
type Dump struct {
	// Process labels the Perfetto process lane ("pipeline", a session's
	// remote address, ...).
	Process string
	// EpochUnixMicro is the recorder's epoch (span offset 0) as wall-clock
	// UnixMicro — what lets two processes' dumps share one timeline.
	EpochUnixMicro int64
	// ClockOffsetMicro is this process's clock minus the reference (peer)
	// clock in µs, measured Cristian-style at handshake; ClockRTTMicro is
	// the RTT of that estimate, bounding the offset error by RTT/2. Both
	// zero on a dump from an unsynced recorder (the server side).
	ClockOffsetMicro int64
	ClockRTTMicro    int64
	Frames           []DumpFrame
}

// Snapshot copies the ring's live window — every frame it holds, oldest
// first — locking one slot at a time so recording continues underneath.
// Returns an empty Dump on a nil recorder.
func (r *Recorder) Snapshot() *Dump {
	d := &Dump{Process: "flight"}
	if r == nil {
		return d
	}
	if p := r.process.Load(); p != nil {
		d.Process = *p
	}
	d.EpochUnixMicro = r.epochUnix
	d.ClockOffsetMicro = r.clockOff.Load()
	d.ClockRTTMicro = r.clockRTT.Load()
	newest := r.next.Load()
	if newest == 0 {
		return d
	}
	oldest := uint64(1)
	if n := uint64(len(r.ring)); newest > n {
		oldest = newest - n + 1
	}
	for id := oldest; id <= newest; id++ {
		s := &r.ring[id&r.mask]
		s.mu.Lock()
		rec := s.rec
		s.mu.Unlock()
		if rec.ID != id {
			// The slot was reclaimed by a frame newer than the window we
			// started from (writers raced ahead of the snapshot); its copy
			// will be picked up at its own id if still in range.
			continue
		}
		df := DumpFrame{
			ID: rec.ID, Index: rec.Index,
			RoI:        rec.RoI,
			CodedBytes: rec.CodedBytes, NominalBytes: rec.NominalBytes,
			Frozen: rec.Frozen, Missed: rec.Missed,
			Latency: rec.Latency, Slack: rec.Slack,
			Age:          rec.Age,
			ClientAgeP99: rec.ClientAgeP99,
			ClientDrops:  rec.ClientDrops, ClientMisses: rec.ClientMisses,
			Spans: append([]Span(nil), rec.Spans[:rec.NSpans]...),
		}
		d.Frames = append(d.Frames, df)
	}
	return d
}

// WriteFlight serialises the current window as Chrome trace-event JSON —
// the /debug/flight payload (telemetry.FlightDumper). Safe on a nil
// recorder (writes an empty trace).
func (r *Recorder) WriteFlight(w io.Writer) error {
	return WriteChromeTraces(w, r.Flights())
}

// Flights returns the current window as a one-dump list, named by its
// process.
func (r *Recorder) Flights() []NamedDump {
	d := r.Snapshot()
	return []NamedDump{{Name: d.Process, Dump: d}}
}

// Render writes an ASCII Gantt chart of the dump's spans: one row per lane
// in first-appearance order, width columns wide (at least 20), each span
// drawn in the first byte of its name, then a footer with the window's
// bounds. A span whose End precedes its Start is drawn swapped, and every
// column is clamped into the row. It is what `gssr trace` and extgantt
// print.
func (d *Dump) Render(w io.Writer, width int) error {
	width = max(width, 20)
	var lanes []string
	byLane := map[string][]Span{}
	var lo, hi time.Duration
	for _, f := range d.Frames {
		for _, s := range f.Spans {
			if s.End < s.Start {
				s.Start, s.End = s.End, s.Start
			}
			if len(lanes) == 0 { // the first span opens the window
				lo, hi = s.Start, s.End
			}
			lo, hi = min(lo, s.Start), max(hi, s.End)
			if _, ok := byLane[s.Lane]; !ok {
				lanes = append(lanes, s.Lane)
			}
			byLane[s.Lane] = append(byLane[s.Lane], s)
		}
	}
	if hi == lo {
		_, err := fmt.Fprintln(w, "(empty timeline)")
		return err
	}
	scale := float64(width) / float64(hi-lo)
	col := func(t time.Duration) int { return min(max(int(float64(t-lo)*scale), 0), width-1) }
	labelW := 0
	for _, l := range lanes {
		labelW = max(labelW, len(l))
	}
	row := make([]byte, width)
	for _, lane := range lanes {
		for i := range row {
			row[i] = '.'
		}
		evs := byLane[lane]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for _, s := range evs {
			mark := byte('#')
			if s.Name != "" {
				mark = s.Name[0]
			}
			last := col(s.End)
			for i := min(col(s.Start), last); i <= last; i++ {
				row[i] = mark
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelW, lane, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  %.1fms → %.1fms\n", labelW, "", msf(lo), msf(hi))
	return err
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- Chrome trace-event JSON -------------------------------------------------

// chromeEvent is one entry of the trace-event format's "traceEvents" array
// (ph "X" = complete span, ph "M" = metadata). Timestamps and durations
// are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// NamedDump labels one dump inside a multi-process export.
type NamedDump struct {
	Name string
	Dump *Dump
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeTraces serialises several dumps into one trace file, one
// Perfetto process per dump (how a multi-session server exposes every
// session's flight window in a single /debug/flight payload). Lanes become
// named threads; every span carries its frame's attributes in args so a
// deadline postmortem has the RoI and bitstream context inline.
func WriteChromeTraces(w io.Writer, dumps []NamedDump) error {
	var ct chromeTrace
	ct.DisplayTimeUnit = "ms"
	ct.TraceEvents = []chromeEvent{} // keep "traceEvents" an array, never null
	for pi, nd := range dumps {
		pid := pi + 1
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": nd.Name},
		})
		if nd.Dump.EpochUnixMicro != 0 || nd.Dump.ClockOffsetMicro != 0 || nd.Dump.ClockRTTMicro != 0 {
			// Per-process clock metadata so ParseChromeTrace + AlignDumps can
			// rebase a two-process trace onto one reference clock offline.
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
				Name: "clock_sync", Ph: "M", Pid: pid,
				Args: map[string]any{
					"epoch_unix_us":   nd.Dump.EpochUnixMicro,
					"clock_offset_us": nd.Dump.ClockOffsetMicro,
					"clock_rtt_us":    nd.Dump.ClockRTTMicro,
				},
			})
		}
		// Lanes map to tids in first-appearance order.
		tids := map[string]int{}
		laneTid := func(lane string) int {
			tid, ok := tids[lane]
			if !ok {
				tid = len(tids) + 1
				tids[lane] = tid
				ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]any{"name": lane},
				})
			}
			return tid
		}
		for _, f := range nd.Dump.Frames {
			for _, s := range f.Spans {
				ev := chromeEvent{
					Name: s.Name, Cat: "frame", Ph: "X",
					Ts: usec(s.Start), Dur: usec(s.Duration()),
					Pid: pid, Tid: laneTid(s.Lane),
				}
				if f.ID != 0 {
					ev.Args = map[string]any{
						"frame_id":      f.ID,
						"frame_index":   f.Index,
						"roi_x":         f.RoI.X,
						"roi_y":         f.RoI.Y,
						"roi_w":         f.RoI.W,
						"roi_h":         f.RoI.H,
						"roi_area":      f.RoI.W * f.RoI.H,
						"coded_bytes":   f.CodedBytes,
						"nominal_bytes": f.NominalBytes,
						"frozen":        f.Frozen,
						"missed":        f.Missed,
						"latency_us":    usec(f.Latency),
						"slack_us":      usec(f.Slack),
					}
					if f.Age != 0 {
						ev.Args["age_us"] = usec(f.Age)
					}
					if f.ClientAgeP99 != 0 || f.ClientDrops != 0 || f.ClientMisses != 0 {
						ev.Args["client_age_p99_us"] = usec(f.ClientAgeP99)
						ev.Args["client_drops"] = f.ClientDrops
						ev.Args["client_misses"] = f.ClientMisses
					}
				}
				ct.TraceEvents = append(ct.TraceEvents, ev)
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}

// ParseChromeTrace reads a trace produced by WriteChromeTraces back into
// dumps, one per process — what `gssr trace` uses to render a flight dump
// offline. Spans regain their lanes from the thread_name metadata; frame
// attributes come from the span args. A span with a non-finite or
// out-of-range ts or dur (see maxTraceNanos), a negative dur or a frame_id
// outside uint64 is an error.
func ParseChromeTrace(r io.Reader) ([]NamedDump, error) {
	var ct chromeTrace
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		return nil, fmt.Errorf("frametrace: parsing trace: %w", err)
	}
	procs := map[int]*NamedDump{}
	lanes := map[[2]int]string{} // (pid, tid) → lane
	var order []int
	proc := func(pid int) *NamedDump {
		nd, ok := procs[pid]
		if !ok {
			nd = &NamedDump{Name: fmt.Sprintf("process %d", pid), Dump: &Dump{}}
			procs[pid] = nd
			order = append(order, pid)
		}
		return nd
	}
	// frames keyed by (pid, frame id); id 0 collects unattributed spans.
	type fkey struct {
		pid int
		id  uint64
	}
	frames := map[fkey]*DumpFrame{}
	var forder []fkey
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			name, _ := ev.Args["name"].(string)
			switch ev.Name {
			case "process_name":
				proc(ev.Pid).Name = name
			case "thread_name":
				lanes[[2]int{ev.Pid, ev.Tid}] = name
			case "clock_sync":
				nd := proc(ev.Pid)
				nd.Dump.EpochUnixMicro = int64(num(ev.Args["epoch_unix_us"]))
				nd.Dump.ClockOffsetMicro = int64(num(ev.Args["clock_offset_us"]))
				nd.Dump.ClockRTTMicro = int64(num(ev.Args["clock_rtt_us"]))
			}
		case "X":
			proc(ev.Pid)
			start, err := micros("ts", ev.Ts)
			if err != nil {
				return nil, err
			}
			dur, err := micros("dur", ev.Dur)
			if err != nil {
				return nil, err
			}
			if dur < 0 {
				return nil, fmt.Errorf("frametrace: negative dur %g µs", ev.Dur)
			}
			rawID := num(ev.Args["frame_id"])
			if !(rawID >= 0 && rawID < 1<<64) {
				return nil, fmt.Errorf("frametrace: frame_id %g out of range", rawID)
			}
			k := fkey{ev.Pid, uint64(rawID)}
			f, ok := frames[k]
			if !ok {
				if f, err = parseFrame(k.id, ev.Args); err != nil {
					return nil, err
				}
				frames[k] = f
				forder = append(forder, k)
			}
			lane := lanes[[2]int{ev.Pid, ev.Tid}]
			if lane == "" {
				lane = fmt.Sprintf("tid %d", ev.Tid)
			}
			f.Spans = append(f.Spans, Span{Lane: lane, Name: ev.Name, Start: start, End: start + dur})
		}
	}
	// Frames attach to their process in frame-id order (insertion order for
	// the pseudo-frame 0).
	sort.SliceStable(forder, func(i, j int) bool {
		if forder[i].pid != forder[j].pid {
			return forder[i].pid < forder[j].pid
		}
		return forder[i].id < forder[j].id
	})
	for _, k := range forder {
		nd := procs[k.pid]
		nd.Dump.Frames = append(nd.Dump.Frames, *frames[k])
	}
	sort.Ints(order)
	out := make([]NamedDump, 0, len(order))
	for _, pid := range order {
		nd := procs[pid]
		nd.Dump.Process = nd.Name
		out = append(out, *nd)
	}
	return out, nil
}

// parseFrame reads the attributes of frame id from its first span's args.
// The pseudo-frame 0 carries none.
func parseFrame(id uint64, args map[string]any) (*DumpFrame, error) {
	f := &DumpFrame{ID: id, Index: -1}
	if id == 0 {
		return f, nil
	}
	f.Index = int(num(args["frame_index"]))
	f.RoI = frame.Rect{
		X: int(num(args["roi_x"])), Y: int(num(args["roi_y"])),
		W: int(num(args["roi_w"])), H: int(num(args["roi_h"])),
	}
	f.CodedBytes = int(num(args["coded_bytes"]))
	f.NominalBytes = int(num(args["nominal_bytes"]))
	f.Frozen, _ = args["frozen"].(bool)
	f.Missed, _ = args["missed"].(bool)
	f.ClientDrops = uint32(num(args["client_drops"]))
	f.ClientMisses = uint32(num(args["client_misses"]))
	for _, a := range []struct {
		key string
		dst *time.Duration
	}{
		{"latency_us", &f.Latency}, {"slack_us", &f.Slack},
		{"age_us", &f.Age}, {"client_age_p99_us", &f.ClientAgeP99},
	} {
		d, err := micros(a.key, num(args[a.key]))
		if err != nil {
			return nil, err
		}
		*a.dst = d
	}
	return f, nil
}

// maxTraceNanos bounds every time a trace may carry. Within ±2^51 ns (about
// 26 days from the recorder's epoch) a nanosecond survives the format's
// float64 microseconds exactly, so a parsed trace re-writes and re-parses
// unchanged; far beyond it the conversion to time.Duration is not even
// defined.
const maxTraceNanos = 1 << 51

// micros converts the trace field key, in float64 microseconds, to the
// nearest nanosecond. A non-finite or out-of-range value is an error.
func micros(key string, us float64) (time.Duration, error) {
	ns := math.Round(us * float64(time.Microsecond))
	if !(math.Abs(ns) <= maxTraceNanos) {
		return 0, fmt.Errorf("frametrace: %s %g µs out of range", key, us)
	}
	return time.Duration(ns), nil
}

// num coerces a decoded JSON value to float64 (json numbers decode as
// float64; absent keys give 0).
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
