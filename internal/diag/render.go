package diag

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"gamestreamsr/internal/frametrace"
)

// This file renders a captured bundle for humans — the `gssr diag`
// subcommand: the trigger, the build and runtime state, the flight
// window's missed frames and the log tail. The bundle's CPU profile is
// left to the toolchain: the report names the `go tool pprof` commands
// that attribute it by goroutine label and by function.

// RenderBundle writes a human-readable report of b. top bounds the missed
// frames and log lines listed (<= 0 means 10). cpuFile is where the caller
// wrote b.CPUProfile; the CPU section names it in the pprof commands.
func RenderBundle(w io.Writer, b *Bundle, top int, cpuFile string) error {
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
			if k != profileDetail { // the cpu profile line says it
				fmt.Fprintf(w, " %s=%s", k, b.Detail[k])
			}
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
		fmt.Fprintf(w, "\ncpu profile: %v window (%s → %s), %d bytes\n",
			b.CPUEnd.Sub(b.CPUStart).Round(time.Millisecond),
			b.CPUStart.Format("15:04:05.000"), b.CPUEnd.Format("15:04:05.000"), len(b.CPUProfile))
		fmt.Fprintf(w, " by label:    go tool pprof -tags %s\n", cpuFile)
		fmt.Fprintf(w, " by function: go tool pprof -top %s\n", cpuFile)
	} else if why := b.Detail[profileDetail]; why != "" {
		fmt.Fprintf(w, "\ncpu profile: none: %s\n", why)
	} else {
		fmt.Fprintf(w, "\ncpu profile: none\n")
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
