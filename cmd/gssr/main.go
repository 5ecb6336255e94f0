// Command gssr is the GameStreamSR experiment harness: it regenerates the
// paper's tables and figures, renders scene previews and dumps RoI-detection
// visualisations.
//
// Usage:
//
//	gssr list                          list available experiments
//	gssr run <id> [flags]              run one experiment (or "all")
//	gssr sim [flags]                   run a pipeline; -json archives the result
//	gssr trace [-width N] <flight>     render a flight-recorder dump offline
//	gssr trace -merge <srv> <cli> [-o]  merge server+client dumps into one timeline
//	gssr diag [-top N] <bundle.json>   render an SLO capture bundle; its CPU
//	                                   profile goes to <bundle>.cpu.pb.gz
//	                                   for `go tool pprof`
//	gssr report <out.md> [flags]       regenerate every experiment into Markdown
//	gssr render <game> <frame> <out>   render a game frame to PPM (+depth PGM)
//	gssr roi <game> <frame> <out-dir>  dump RoI detection stages as PGM/PPM
//
// Flags for run:
//
//	-simdiv N    pixel-simulation divisor (default 8; 4 = slower, finer)
//	-gop N       simulated GOP size (default 12)
//	-frames N    frames per pipeline run (default GOP size)
//	-games LIST  comma-separated game ids (default all ten)
//	-out DIR     output directory for image dumps (fig8)
//	-metrics A   serve telemetry on address A (e.g. :9090) while running:
//	             /metrics (Prometheus text), /metrics.json, /debug/flight,
//	             /debug/pprof
//	-flight F    attach a per-frame flight recorder, archive its window to F
//	             as Chrome trace-event JSON (ui.perfetto.dev opens it;
//	             `gssr trace F` renders it offline) and print the deadline/SLO
//	             summary
//
// `sim` accepts the same -metrics and -flight flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	gssr "gamestreamsr"
	"gamestreamsr/internal/diag"
	"gamestreamsr/internal/experiments"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gssr:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "run":
		return cmdRun(args[1:])
	case "render":
		return cmdRender(args[1:])
	case "roi":
		return cmdRoI(args[1:])
	case "sim":
		return cmdSim(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "diag":
		return cmdDiag(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gssr list
  gssr run <experiment-id|all> [-simdiv N] [-gop N] [-frames N] [-games G1,G3] [-out DIR] [-metrics :9090] [-flight out.json]
  gssr sim [-game G3] [-device s8] [-pipeline ours|nemo|srdec] [-frames N] [-gop N] [-simdiv N] [-json out.json] [-metrics :9090] [-flight out.json]
  gssr trace [-width N] <flight.json>
  gssr trace -merge [-o merged.json] <server.json> <client.json>
  gssr diag [-top N] <bundle.json>
  gssr report <out.md> [-simdiv N] [-gop N] [-games G1,G3]
  gssr render <game> <frame> <out.ppm>
  gssr roi <game> <frame> <out-dir>`)
}

func cmdList() error {
	for _, id := range experiments.IDs() {
		title, err := experiments.Title(id)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %s\n", id, title)
	}
	return nil
}

func cmdRun(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("run: missing experiment id (try `gssr list`)")
	}
	id := args[0]
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	simdiv := fs.Int("simdiv", 8, "pixel-simulation divisor")
	gop := fs.Int("gop", 12, "simulated GOP size")
	frames := fs.Int("frames", 0, "frames per run (default GOP size)")
	gamesFlag := fs.String("games", "", "comma-separated game ids")
	out := fs.String("out", "", "output directory for image dumps")
	metricsAddr := fs.String("metrics", "", "telemetry listen address (e.g. :9090); empty disables")
	flightPath := fs.String("flight", "", "archive the flight-recorder window to this path (Chrome trace JSON); empty disables")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opt := experiments.Options{
		SimDiv:  *simdiv,
		GOPSize: *gop,
		Frames:  *frames,
		OutDir:  *out,
	}
	if *metricsAddr != "" {
		opt.Metrics = telemetry.NewRegistry()
	}
	if *flightPath != "" {
		opt.Flight = frametrace.New(frametrace.Config{Metrics: opt.Metrics})
	}
	if *metricsAddr != "" {
		if err := diag.ServeMetrics(*metricsAddr, opt.Metrics, opt.Flight, nil); err != nil {
			return err
		}
	}
	if *gamesFlag != "" {
		opt.GameIDs = strings.Split(*gamesFlag, ",")
	}
	runErr := error(nil)
	if id == "all" {
		runErr = experiments.RunAll(os.Stdout, opt)
	} else {
		runErr = experiments.Run(id, os.Stdout, opt)
	}
	if runErr != nil {
		return runErr
	}
	return finishFlight(opt.Flight, *flightPath, os.Stdout)
}

func cmdRender(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("render: want <game> <frame> <out.ppm>")
	}
	g, err := gssr.GameByID(args[0])
	if err != nil {
		return err
	}
	var fi int
	if _, err := fmt.Sscanf(args[1], "%d", &fi); err != nil {
		return fmt.Errorf("render: bad frame index %q", args[1])
	}
	out := g.Render(&gssr.Renderer{}, fi, 640, 360)
	if err := out.Color.SavePPM(args[2]); err != nil {
		return err
	}
	depthPath := strings.TrimSuffix(args[2], filepath.Ext(args[2])) + "_depth.pgm"
	if err := out.Depth.SavePGM(depthPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", args[2], depthPath)
	return nil
}

func cmdRoI(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("roi: want <game> <frame> <out-dir>")
	}
	g, err := gssr.GameByID(args[0])
	if err != nil {
		return err
	}
	var fi int
	if _, err := fmt.Sscanf(args[1], "%d", &fi); err != nil {
		return fmt.Errorf("roi: bad frame index %q", args[1])
	}
	dir := args[2]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := g.Render(&gssr.Renderer{}, fi, 320, 180)
	det, err := gssr.NewRoIDetector(gssr.RoIConfig{WindowW: 72, WindowH: 72})
	if err != nil {
		return err
	}
	rect, dbg, err := det.DetectDebug(out.Depth)
	if err != nil {
		return err
	}
	// Color frame with the RoI box burned in.
	marked := out.Color.Clone()
	drawBox(marked, rect)
	if err := marked.SavePPM(filepath.Join(dir, "frame_roi.ppm")); err != nil {
		return err
	}
	if err := out.Depth.SavePGM(filepath.Join(dir, "depth.pgm")); err != nil {
		return err
	}
	for _, st := range []struct {
		name  string
		plane []float64
	}{
		{"nearness", dbg.Nearness}, {"foreground", dbg.Foreground},
		{"weighted", dbg.Weighted}, {"selected_layer", dbg.SearchMap},
	} {
		f, err := os.Create(filepath.Join(dir, st.name+".pgm"))
		if err != nil {
			return err
		}
		if err := frame.WriteGrayPGM(f, st.plane, dbg.W, dbg.H); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("%s frame %d: RoI %v (threshold %.3f, layer %d/%d)\n",
		g.ID, fi, rect, dbg.Threshold, dbg.Selected, len(dbg.LayerSums))
	fmt.Printf("stage images written to %s\n", dir)
	return nil
}

// cmdReport regenerates every experiment and writes a Markdown report with
// one fenced section per table/figure — a machine-produced companion to
// EXPERIMENTS.md.
func cmdReport(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("report: missing output path")
	}
	path := args[0]
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	simdiv := fs.Int("simdiv", 8, "pixel-simulation divisor")
	gop := fs.Int("gop", 12, "simulated GOP size")
	gamesFlag := fs.String("games", "", "comma-separated game ids")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opt := experiments.Options{SimDiv: *simdiv, GOPSize: *gop}
	if *gamesFlag != "" {
		opt.GameIDs = strings.Split(*gamesFlag, ",")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# GameStreamSR — generated results\n\n")
	fmt.Fprintf(f, "Produced by `gssr report` (simdiv %d, GOP %d). Deterministic:\n", *simdiv, *gop)
	fmt.Fprintf(f, "identical invocations reproduce identical numbers.\n\n")
	for _, id := range experiments.IDs() {
		title, err := experiments.Title(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "## %s — %s\n\n```\n", id, title)
		if err := experiments.Run(id, f, opt); err != nil {
			return fmt.Errorf("report: %s: %w", id, err)
		}
		fmt.Fprintf(f, "```\n\n")
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// cmdSim runs one pipeline end to end and prints a summary; -json archives
// the full per-frame result.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	gameID := fs.String("game", "G3", "workload id")
	devName := fs.String("device", "s8", "client device (s8 or pixel)")
	pipe := fs.String("pipeline", "ours", "pipeline: ours, nemo or srdec")
	frames := fs.Int("frames", 12, "frames to stream")
	gop := fs.Int("gop", 12, "GOP size")
	simdiv := fs.Int("simdiv", 8, "pixel-simulation divisor")
	jsonPath := fs.String("json", "", "write the full result as JSON to this path")
	metricsAddr := fs.String("metrics", "", "telemetry listen address (e.g. :9090); empty disables")
	flightPath := fs.String("flight", "", "archive the flight-recorder window to this path (Chrome trace JSON); empty disables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := gssr.GameByID(*gameID)
	if err != nil {
		return err
	}
	dev, err := gssr.DeviceByName(*devName)
	if err != nil {
		return err
	}
	cfg := gssr.Config{Game: g, Device: dev, SimDiv: *simdiv, GOPSize: *gop}
	if *metricsAddr != "" {
		cfg.Metrics = telemetry.NewRegistry()
	}
	if *flightPath != "" {
		cfg.Flight = frametrace.New(frametrace.Config{Metrics: cfg.Metrics})
	}
	if *metricsAddr != "" {
		if err := diag.ServeMetrics(*metricsAddr, cfg.Metrics, cfg.Flight, nil); err != nil {
			return err
		}
	}
	var v gssr.Variant
	switch *pipe {
	case "ours":
		v = gssr.Ours()
	case "nemo":
		v = gssr.NEMO()
	case "srdec":
		v = gssr.SRDecoder(gssr.Bicubic)
	default:
		return fmt.Errorf("sim: unknown pipeline %q (want ours, nemo or srdec)", *pipe)
	}
	out, err := gssr.Run(cfg, *frames, v)
	if err != nil {
		return err
	}
	res := out[0]
	psnr, _ := res.MeanPSNR()
	mtp, _ := res.MeanMTP(gssr.ReferenceFrame)
	energy, _ := res.GOPEnergyTotal(*gop)
	fmt.Printf("%s on %s via %s: %d frames, mean PSNR %.2f dB, ref MTP %.1f ms, %.2f J/GOP\n",
		g.ID, dev.Name, res.Pipeline, len(res.Frames), psnr,
		float64(mtp)/1e6, energy)
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("result archived to %s\n", *jsonPath)
	}
	return finishFlight(cfg.Flight, *flightPath, os.Stdout)
}

// cmdTrace renders a flight-recorder dump offline: the ASCII Gantt chart of
// every session's window plus a per-frame table (RoI, coded bytes, deadline
// slack) — the postmortem view of a /debug/flight or -flight capture without
// leaving the terminal. With -merge it instead fuses a server dump and a
// client dump into one clock-aligned two-process Perfetto trace
// (DESIGN.md §13).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	width := fs.Int("width", 72, "Gantt chart width in columns")
	merge := fs.Bool("merge", false, "merge <server.json> <client.json> onto one clock-aligned timeline")
	out := fs.String("o", "merged-trace.json", "merged trace output path (with -merge)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *merge {
		if fs.NArg() != 2 {
			return fmt.Errorf("trace -merge: want <server.json> <client.json> (from /debug/flight and `gssr-client -flight`)")
		}
		return mergeTraces(fs.Arg(0), fs.Arg(1), *out, os.Stdout)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: want one <flight.json> (from `gssr sim -flight` or /debug/flight)")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	dumps, err := frametrace.ParseChromeTrace(f)
	if err != nil {
		return err
	}
	if len(dumps) == 0 {
		fmt.Println("(empty trace)")
		return nil
	}
	for _, nd := range dumps {
		fmt.Printf("== %s ==\n", nd.Name)
		if err := nd.Dump.Render(os.Stdout, *width); err != nil {
			return err
		}
		if err := writeFrameTable(os.Stdout, nd.Dump); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// cmdDiag renders an SLO capture bundle (written by a `gssr-server -diag`
// watchdog trigger, or fetched from /debug/diag) as a terminal report: the
// trigger reason and detail, build and runtime state, the flight-trace
// frame summary around the trigger and the recent log lines. The bundle's
// CPU profile is written byte for byte beside it, BUNDLE.json →
// BUNDLE.cpu.pb.gz, and the report names the `go tool pprof -tags` and
// `-top` commands that attribute it by label and by function.
func cmdDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ContinueOnError)
	top := fs.Int("top", 10, "missed frames and log lines listed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("diag: want one <bundle.json> (from -diag's bundle dir or /debug/diag)")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	b, err := diag.ParseBundle(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	cpuFile := strings.TrimSuffix(path, filepath.Ext(path)) + ".cpu.pb.gz"
	if len(b.CPUProfile) > 0 {
		if err := os.WriteFile(cpuFile, b.CPUProfile, 0o644); err != nil {
			return err
		}
	}
	return diag.RenderBundle(os.Stdout, b, *top, cpuFile)
}

// mergeTraces fuses a server flight dump and a client flight dump into one
// Chrome/Perfetto trace: every process from both files is rebased onto one
// reference clock (frametrace.AlignDumps — client epochs corrected by their
// handshake-measured offset), written to outPath, and the frames the two
// sides share are tabulated by flight ID with their wire-to-present age.
func mergeTraces(serverPath, clientPath, outPath string, w io.Writer) error {
	load := func(path string) ([]frametrace.NamedDump, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		dumps, err := frametrace.ParseChromeTrace(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return dumps, nil
	}
	serverDumps, err := load(serverPath)
	if err != nil {
		return err
	}
	clientDumps, err := load(clientPath)
	if err != nil {
		return err
	}
	if len(serverDumps) == 0 || len(clientDumps) == 0 {
		return fmt.Errorf("trace -merge: empty trace (server %d processes, client %d)", len(serverDumps), len(clientDumps))
	}
	for _, nd := range clientDumps {
		if off, rtt := nd.Dump.ClockOffsetMicro, nd.Dump.ClockRTTMicro; off != 0 || rtt != 0 {
			fmt.Fprintf(w, "clock: %s offset %v, rtt %v (alignment error ≤ %v)\n", nd.Name,
				time.Duration(off)*time.Microsecond, time.Duration(rtt)*time.Microsecond,
				time.Duration(rtt/2)*time.Microsecond)
		}
	}
	aligned := frametrace.AlignDumps(append(append([]frametrace.NamedDump{}, serverDumps...), clientDumps...))
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := frametrace.WriteChromeTraces(f, aligned); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Correlate each client process against the server process sharing the
	// most frame IDs (a multi-session server dump has one process per
	// session; only one streamed to this client).
	alignedServer := aligned[:len(serverDumps)]
	alignedClient := aligned[len(serverDumps):]
	total := 0
	for _, cd := range alignedClient {
		var best []frametrace.FrameCorrelation
		bestName := ""
		for _, sd := range alignedServer {
			if corr := frametrace.Correlate(sd.Dump, cd.Dump); len(corr) > len(best) {
				best, bestName = corr, sd.Name
			}
		}
		if len(best) == 0 {
			continue
		}
		total += len(best)
		fmt.Fprintf(w, "%d frames correlated: %s ↔ %s\n", len(best), bestName, cd.Name)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "frame\tindex\tserver send(ms)\tclient present(ms)\te2e age(ms)")
		for _, fc := range best {
			fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%.2f\n",
				fc.ID, fc.Index, msf(fc.ServerSend), msf(fc.ClientPresent), msf(fc.Age))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if total == 0 {
		fmt.Fprintln(w, "no frames correlated (server capture without flight IDs?)")
	}
	fmt.Fprintf(w, "merged trace written to %s (open in ui.perfetto.dev)\n", outPath)
	return nil
}

// writeFrameTable prints one row per recorded frame with the attributes a
// frame-drop postmortem needs inline: RoI geometry, bitstream size, modelled
// latency and deadline slack (negative slack = missed).
func writeFrameTable(w io.Writer, d *frametrace.Dump) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := false
	for _, fr := range d.Frames {
		if fr.ID == 0 {
			continue // pseudo-frame: spans without frame attributes
		}
		if !header {
			fmt.Fprintln(tw, "frame\tindex\tRoI\tcoded(B)\tlatency(ms)\tslack(ms)\tstatus")
			header = true
		}
		status := "ok"
		switch {
		case fr.Missed:
			status = "MISS"
		case fr.Frozen:
			status = "frozen"
		}
		fmt.Fprintf(tw, "%d\t%d\t%dx%d@(%d,%d)\t%d\t%.2f\t%+.2f\t%s\n",
			fr.ID, fr.Index, fr.RoI.W, fr.RoI.H, fr.RoI.X, fr.RoI.Y,
			fr.CodedBytes, msf(fr.Latency), msf(fr.Slack), status)
	}
	return tw.Flush()
}

// finishFlight archives the recorder's window to path and prints the
// deadline/SLO summary. No-op on a nil recorder.
func finishFlight(rec *frametrace.Recorder, path string, w io.Writer) error {
	if rec == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteFlight(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep := rec.Report()
	fmt.Fprintf(w, "flight: %d frames begun, %d delivered, %d missed the %.2f ms deadline (%.1f%%, longest streak %d)\n",
		rep.Frames, rep.Delivered, rep.Misses, msf(rep.Deadline), 100*rep.MissRate(), rep.LongestStreak)
	fmt.Fprintf(w, "flight: frame latency p50 %.2f ms, p99 %.2f ms, p99.9 %.2f ms\n",
		msf(rep.P50), msf(rep.P99), msf(rep.P999))
	fmt.Fprintf(w, "flight window archived to %s (open in ui.perfetto.dev, or `gssr trace %s`)\n", path, path)
	return nil
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// drawBox burns a 1-px red rectangle outline into im.
func drawBox(im *gssr.Image, r gssr.Rect) {
	for x := r.X; x < r.X+r.W && x < im.W; x++ {
		if r.Y >= 0 && r.Y < im.H {
			im.Set(x, r.Y, 255, 30, 30)
		}
		if y := r.Y + r.H - 1; y >= 0 && y < im.H {
			im.Set(x, y, 255, 30, 30)
		}
	}
	for y := r.Y; y < r.Y+r.H && y < im.H; y++ {
		if r.X >= 0 && r.X < im.W {
			im.Set(r.X, y, 255, 30, 30)
		}
		if x := r.X + r.W - 1; x >= 0 && x < im.W {
			im.Set(x, y, 255, 30, 30)
		}
	}
}
