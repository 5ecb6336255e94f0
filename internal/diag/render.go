package diag

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gamestreamsr/internal/frametrace"
)

// This file renders a captured bundle for humans — the `gssr diag`
// subcommand. The headline view is CPU attribution: the bundle's ring
// profile decoded by the in-repo pprof reader and aggregated by the
// goroutine labels the runtime stamped on every sample, aligned against
// the flight trace's missed frames so "session X missed its deadlines"
// and "session X burned 71% of the CPU in stage sr" sit side by side.

// labelAttr is one aggregated attribution row.
type labelAttr struct {
	key   string
	nanos int64
}

// CPUAttribution aggregates p's CPU time by the given label keys: each
// sample lands in the row named by its joined label values ("sess-3/sr");
// samples carrying none of the keys land in "(unlabeled)". Returns the
// rows sorted by descending CPU time and the profile's total.
func CPUAttribution(p *Profile, keys ...string) (rows []labelAttr, total int64) {
	vi := p.CPUIndex()
	if vi < 0 {
		return nil, 0
	}
	acc := map[string]int64{}
	for _, s := range p.Samples {
		if vi >= len(s.Value) {
			continue
		}
		v := s.Value[vi]
		total += v
		var parts []string
		for _, k := range keys {
			if lv, ok := s.Labels[k]; ok {
				parts = append(parts, lv)
			}
		}
		key := "(unlabeled)"
		if len(parts) > 0 {
			key = strings.Join(parts, "/")
		}
		acc[key] += v
	}
	for k, v := range acc {
		rows = append(rows, labelAttr{key: k, nanos: v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].nanos != rows[j].nanos {
			return rows[i].nanos > rows[j].nanos
		}
		return rows[i].key < rows[j].key
	})
	return rows, total
}

// topFunctions aggregates CPU time by leaf function.
func topFunctions(p *Profile) (rows []labelAttr, total int64) {
	vi := p.CPUIndex()
	if vi < 0 {
		return nil, 0
	}
	acc := map[string]int64{}
	for _, s := range p.Samples {
		if vi >= len(s.Value) {
			continue
		}
		v := s.Value[vi]
		total += v
		name := "(unknown)"
		if len(s.Stack) > 0 && s.Stack[0] != "" {
			name = s.Stack[0]
		}
		acc[name] += v
	}
	for k, v := range acc {
		rows = append(rows, labelAttr{key: k, nanos: v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].nanos != rows[j].nanos {
			return rows[i].nanos > rows[j].nanos
		}
		return rows[i].key < rows[j].key
	})
	return rows, total
}

// RenderBundle writes a human-readable report of b. top bounds each
// attribution table (<= 0 means 10).
func RenderBundle(w io.Writer, b *Bundle, top int) error {
	if top <= 0 {
		top = 10
	}
	fmt.Fprintf(w, "diag bundle #%d — %s\n", b.Seq, b.Time.Format(time.RFC3339))
	fmt.Fprintf(w, "reason: %s", b.Reason)
	if len(b.Detail) > 0 {
		keys := make([]string, 0, len(b.Detail))
		for k := range b.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, b.Detail[k])
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "build: %s %s GOMAXPROCS=%d NumCPU=%d", b.Build.GoVersion, b.Build.Version, b.Build.GOMAXPROCS, b.Build.NumCPU)
	if b.Build.Revision != "" {
		fmt.Fprintf(w, " rev=%s", b.Build.Revision)
	}
	fmt.Fprintln(w)

	if n := len(b.Runtime); n > 0 {
		s := b.Runtime[n-1]
		fmt.Fprintf(w, "runtime: %d goroutines, heap live %.1f MB, %d GC cycles, GC pause p99 %v, sched latency p99 %v\n",
			s.Goroutines, float64(s.HeapLiveBytes)/(1<<20), s.GCCycles, s.GCPauseP99, s.SchedLatP99)
	}

	if len(b.CPUProfile) > 0 {
		p, err := ParseProfile(b.CPUProfile)
		if err != nil {
			fmt.Fprintf(w, "\ncpu profile: unparseable: %v\n", err)
		} else {
			window := b.CPUEnd.Sub(b.CPUStart)
			fmt.Fprintf(w, "\ncpu profile: %d samples over %v (%s → %s)\n",
				len(p.Samples), window.Round(time.Millisecond),
				b.CPUStart.Format("15:04:05.000"), b.CPUEnd.Format("15:04:05.000"))
			renderAttr(w, "by session/stage", p, top, "session", "stage")
			renderAttr(w, "by scheduler client", p, top, "sched_client")
			rows, total := topFunctions(p)
			fmt.Fprintf(w, " top functions:\n")
			renderRows(w, rows, total, top)
		}
	} else {
		fmt.Fprintf(w, "\ncpu profile: none in ring at capture time\n")
	}

	if len(b.FlightTrace) > 0 {
		renderFlight(w, b.FlightTrace, top)
	}

	if len(b.Logs) > 0 {
		fmt.Fprintf(w, "\nrecent log lines (%d):\n", len(b.Logs))
		start := 0
		if len(b.Logs) > top {
			start = len(b.Logs) - top
			fmt.Fprintf(w, " … %d earlier lines in the bundle\n", start)
		}
		for _, e := range b.Logs[start:] {
			fmt.Fprintf(w, " %s %-5s %s\n", e.Time.Format("15:04:05.000"), e.Level, e.Line)
		}
	}
	return nil
}

// renderAttr prints one label-attribution table, skipping it when the
// profile carries none of the keys (e.g. "sched_client" when no session ran
// on the parallel scheduler).
func renderAttr(w io.Writer, title string, p *Profile, top int, keys ...string) {
	rows, total := CPUAttribution(p, keys...)
	if len(rows) == 0 || (len(rows) == 1 && rows[0].key == "(unlabeled)") {
		return
	}
	fmt.Fprintf(w, " %s:\n", title)
	renderRows(w, rows, total, top)
}

func renderRows(w io.Writer, rows []labelAttr, total int64, top int) {
	if total == 0 {
		return
	}
	if len(rows) > top {
		rows = rows[:top]
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %6.1f%%  %10v  %s\n",
			100*float64(r.nanos)/float64(total), time.Duration(r.nanos).Round(10*time.Microsecond), r.key)
	}
}

// renderFlight summarises the bundle's flight dump: per process (one per
// session on a server bundle), frame counts, miss counts and the last
// few missed frames with their latency and slack — the frames that
// tripped the watchdog.
func renderFlight(w io.Writer, trace []byte, top int) {
	dumps, err := frametrace.ParseChromeTrace(bytes.NewReader(trace))
	if err != nil {
		fmt.Fprintf(w, "\nflight trace: unparseable: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\nflight window (%d process(es)):\n", len(dumps))
	for _, nd := range dumps {
		if nd.Dump == nil {
			continue
		}
		missed := 0
		var worst []frametrace.DumpFrame
		for _, f := range nd.Dump.Frames {
			if f.Missed {
				missed++
				worst = append(worst, f)
			}
		}
		fmt.Fprintf(w, " %s: %d frames, %d missed\n", nd.Name, len(nd.Dump.Frames), missed)
		if len(worst) > top {
			worst = worst[len(worst)-top:]
		}
		for _, f := range worst {
			fmt.Fprintf(w, "  frame %d (id %d): latency %v, slack %v\n",
				f.Index, f.ID, f.Latency.Round(time.Microsecond), f.Slack.Round(time.Microsecond))
		}
	}
}
