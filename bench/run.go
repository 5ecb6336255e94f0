package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/render"
)

// workloadTimeout bounds one pass over a workload's processes; the driver
// allows a run 180 s in all.
const workloadTimeout = 100 * time.Second

// harness holds what every workload run needs.
type harness struct {
	self   string // this executable, for -child re-execution
	binDir string // the built gssr-server and gssr-client
	outDir string // bench/out
}

// pass is the outcome of one pass of a workload's processes over n frames.
type pass struct {
	Requested int
	Presented int // frames shown un-frozen
	RoIWindow int
	SetupS    float64 // pass start (replay: making the cycle comes first) → the instant the first GOP's last frame was shown, pauses left out

	EpochUS   int64     // Unix µs of the epoch PresentUS counts from
	PresentUS []float64 // per frame, from the epoch
	LatencyUS []float64 // per frame: packet received → presentable
	LatEndUS  []float64 // per frame: when that interval ended, from the epoch
	AgeUS     []float64 // per frame: server send → present (live only)
	RecvUS    []float64 // per frame: time blocked in RecvFrame (live only)
	Missed    int       // frames whose client work overran the 16.66 ms budget (live only)

	CalibMs []float64   // the calibration rounds interleaved with the pass
	Pauses  []pauseSpan // when the processes were stopped for them
	startUS float64     // Unix µs at which the pass began
	shownUS float64     // Unix µs at which the first GOP's last frame was shown: set-up ends

	Bytes     float64 // coded payload bytes of the whole pass
	Client    usage   // live: the client process; engine: the one process
	Server    usage   // live only
	LastPSNR  float64 // last frame against the HR ground-truth render
	Hash      string  // engine only: of the whole Result
	HeadHash  string  // engine only: of its first GOP
	LastFrame *frame.Image
}

// job is one workload with the inputs a seed gave it.
type job struct {
	wl workload
	in inputs
	// A replay workload's pre-encoded cycle travels in this file from the
	// child that makes it, at the start of every pass, to the pass's replay
	// server and to the traced composition.
	cyclePath string
}

// newJob makes wl's inputs from the seed. The caller removes the job's file
// with done.
func (h *harness) newJob(wl workload, seed int64) (j *job, done func(), err error) {
	j = &job{wl: wl, in: wl.inputs(seed)}
	if wl.Kind != kindReplay {
		return j, func() {}, nil
	}
	f, err := os.CreateTemp(h.outDir, "cycle-*.gob")
	if err != nil {
		return nil, nil, err
	}
	f.Close()
	j.cyclePath = f.Name()
	return j, func() { os.Remove(j.cyclePath) }, nil
}

// run makes one pass of the job over warm+timed frames; cal, when not nil,
// interleaves calibration rounds with it.
func (h *harness) run(ctx context.Context, j *job, timed int, cal *calibrator) (*pass, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadTimeout)
	defer cancel() // kills whatever child is still alive
	n := j.in.Warm + timed
	var p *pass
	var err error
	if j.wl.Kind == kindEngine {
		p, err = h.runEngine(ctx, j.in, n, 0, cal)
	} else {
		p, err = h.runLive(ctx, j, n, cal)
	}
	if err != nil {
		return nil, err
	}
	if p.Presented >= gopSize {
		p.shownUS = float64(p.EpochUS) + p.PresentUS[gopSize-1]
		p.SetupS = (p.shownUS - p.startUS - pausedUS(p.Pauses, p.startUS, p.shownUS)) / 1e6
	}
	return p, nil
}

// speeds is how much slower than the reference the box ran during the
// pass's set-up and after it: the median calibration round of each stretch
// over calibRefMs. A time is normalised with the rounds taken while it was
// measured; a stretch with too few of its own (a set-up of a second has
// one) goes by the whole pass's. ok is false, and both are 1, when the whole
// pass has too few.
func (p *pass) speeds() (setup, timed float64, ok bool) {
	if len(p.CalibMs) < minCalibRounds {
		return 1, 1, false
	}
	var before, after []float64
	for i, v := range p.CalibMs {
		if float64(p.Pauses[i].FromUS) < p.shownUS {
			before = append(before, v)
		} else {
			after = append(after, v)
		}
	}
	speed := func(rounds []float64) float64 {
		if len(rounds) < minCalibRounds {
			rounds = p.CalibMs
		}
		return median(rounds) / calibRefMs
	}
	return speed(before), speed(after), true
}

// makeCycle renders, detects, encodes and round-trip-checks the replay
// workload's cycle. That is the workload's set-up, so every pass does it,
// timed and calibrated like the rest; a child of its own keeps its CPU and
// memory out of the replay server's.
func (h *harness) makeCycle(ctx context.Context, j *job, cal *calibrator) error {
	mk, err := startProc(ctx, "cycle-maker", h.self, "-child", "cycle",
		"-w", strconv.Itoa(j.wl.W), "-h", strconv.Itoa(j.wl.H),
		"-start", strconv.Itoa(j.in.Start), "-out", j.cyclePath)
	if err != nil {
		return err
	}
	cal.add(mk)
	if err := mk.wait(); err != nil {
		return fmt.Errorf("cycle-maker: %w; last output:\n%s", err, mk.tail(8))
	}
	return nil
}

func (h *harness) runLive(ctx context.Context, j *job, n int, cal *calibrator) (*pass, error) {
	wl, in := j.wl, j.in
	dir, err := os.MkdirTemp(h.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	flightPath, savePath := filepath.Join(dir, "flight.json"), filepath.Join(dir, "last.ppm")

	t0 := time.Now()
	defer cal.finish() // on every path, so that no child stays stopped
	var srv *proc
	if wl.Kind == kindReplay {
		if err := h.makeCycle(ctx, j, cal); err != nil {
			return nil, err
		}
		srv, err = startProc(ctx, "replay-server", h.self, "-child", "replay",
			"-w", strconv.Itoa(wl.W), "-h", strconv.Itoa(wl.H),
			"-cycle", j.cyclePath, "-frames", strconv.Itoa(n))
	} else {
		srv, err = startProc(ctx, "gssr-server", filepath.Join(h.binDir, "gssr-server"),
			"-addr", "127.0.0.1:0", "-game", gameID, "-frames", strconv.Itoa(n),
			"-w", strconv.Itoa(wl.W), "-h", strconv.Itoa(wl.H),
			"-gop", strconv.Itoa(gopSize), "-q", strconv.Itoa(qStep))
	}
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	cal.add(srv)
	// gssr-server logs `serving … addr=…`, the replay child `ready addr=…`.
	line, err := srv.await(ctx, "addr=")
	if err != nil {
		return nil, err
	}
	addr, _ := field(line, "addr")
	preReadyCPU := 0.0
	if v, ok := field(line, "cpu_ms"); ok {
		preReadyCPU, _ = strconv.ParseFloat(v, 64)
	}

	// The ring must hold the whole session: the dump is the only per-frame
	// record the client leaves.
	cli, err := startProc(ctx, "gssr-client", filepath.Join(h.binDir, "gssr-client"),
		"-addr", addr, "-device", deviceName, "-scale", strconv.Itoa(scale),
		"-flight", flightPath, "-flight-frames", strconv.Itoa(n), "-save", savePath)
	if err != nil {
		return nil, err
	}
	cal.add(cli)
	if err := cli.wait(); err != nil {
		return nil, fmt.Errorf("gssr-client: %w; last output:\n%s\nserver:\n%s", err, cli.tail(8), srv.tail(8))
	}
	samples, pauses := cal.finish()
	srv.stop()

	p := &pass{Requested: n, RoIWindow: clientRoIWin, Client: cli.usage(), Server: srv.usage(),
		CalibMs: samples, Pauses: pauses, startUS: float64(t0.UnixMicro())}
	p.Server.CPUMs -= preReadyCPU
	if wl.Kind == kindLive {
		hello, ok := srv.find("roi_window=")
		if !ok {
			return nil, errors.New("gssr-server logged no hello line with roi_window=")
		}
		v, _ := field(hello, "roi_window")
		if p.RoIWindow, err = strconv.Atoi(v); err != nil {
			return nil, fmt.Errorf("gssr-server hello line: roi_window=%q", v)
		}
	}
	summary, ok := cli.find("session summary")
	if !ok {
		return nil, errors.New("gssr-client logged no session summary")
	}
	kb, _ := field(summary, "kb")
	kbv, err := strconv.ParseFloat(kb, 64)
	if err != nil || kbv <= 0 {
		return nil, fmt.Errorf("gssr-client session summary: kb=%q", kb)
	}
	p.Bytes = kbv * 1024
	if err := p.readFlight(flightPath); err != nil {
		return nil, err
	}
	if p.Presented == n {
		f, err := os.Open(savePath)
		if err != nil {
			return nil, fmt.Errorf("gssr-client saved no last frame: %w", err)
		}
		p.LastFrame, err = frame.ReadPPM(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		// On replay frame i shows cycle frame i mod replayCycle.
		last := n - 1
		if wl.Kind == kindReplay {
			last = in.Start + (n-1)%replayCycle
		}
		if p.LastPSNR, err = psnrAgainstScript(p.LastFrame, last); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// readFlight takes the per-frame timestamps out of the client's flight dump.
// It depends on the `recv` and `present` spans and on the latency, age,
// frozen and frame-index attributes, and fails rather than report a 0 when
// one is missing.
func (p *pass) readFlight(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("gssr-client wrote no flight dump: %w", err)
	}
	defer f.Close()
	dumps, err := frametrace.ParseChromeTrace(f)
	if err != nil {
		return err
	}
	if len(dumps) != 1 || dumps[0].Dump.EpochUnixMicro == 0 {
		return fmt.Errorf("flight dump: want one process with a clock_sync epoch, got %d", len(dumps))
	}
	d := dumps[0].Dump
	frames := d.Frames
	sort.Slice(frames, func(i, j int) bool { return frames[i].Index < frames[j].Index })
	anyAge := false
	for i, fr := range frames {
		if fr.Index != i {
			return fmt.Errorf("flight dump: frame %d missing (found index %d); ring too small?", i, fr.Index)
		}
		if fr.Frozen {
			continue
		}
		present, recv := -1.0, -1.0
		for _, s := range fr.Spans {
			switch s.Name {
			case "present":
				present = float64(s.Start.Nanoseconds()) / 1e3
			case "recv":
				recv = float64(s.Duration().Nanoseconds()) / 1e3
			}
		}
		if present < 0 || recv < 0 || fr.Latency <= 0 {
			return fmt.Errorf("flight dump: frame %d lacks a present span, a recv span or latency_us", i)
		}
		p.Presented++
		p.PresentUS = append(p.PresentUS, present)
		p.RecvUS = append(p.RecvUS, recv)
		p.LatencyUS = append(p.LatencyUS, float64(fr.Latency.Nanoseconds())/1e3)
		p.LatEndUS = append(p.LatEndUS, present)
		p.AgeUS = append(p.AgeUS, float64(fr.Age.Nanoseconds())/1e3)
		anyAge = anyAge || fr.Age > 0
		if fr.Missed {
			p.Missed++
		}
	}
	if p.Presented > 0 && !anyAge {
		return errors.New("flight dump: no frame carries age_us")
	}
	p.EpochUS = d.EpochUnixMicro
	return nil
}

// timedLatencyUS is the client latency of the timed frames, leaving out the
// few a calibration pause fell into.
func (p *pass) timedLatencyUS(warm int) []float64 {
	var xs []float64
	for i := warm; i < len(p.LatencyUS); i++ {
		end := float64(p.EpochUS) + p.LatEndUS[i]
		if pausedUS(p.Pauses, end-p.LatencyUS[i], end) == 0 {
			xs = append(xs, p.LatencyUS[i])
		}
	}
	return xs
}

// psnrAgainstScript scores an upscaled frame against the harness's own
// render of script frame i at the upscaled geometry.
func psnrAgainstScript(up *frame.Image, i int) (float64, error) {
	g, err := games.ByID(gameID)
	if err != nil {
		return 0, err
	}
	gt := g.Render(&render.Renderer{}, i, up.W, up.H)
	return metrics.PSNR(gt.Color, up)
}

// runEngine makes one pass of engine_edsr in a child; procs > 0 pins its
// GOMAXPROCS (the determinism repeat).
func (h *harness) runEngine(ctx context.Context, in inputs, n, procs int, cal *calibrator) (*pass, error) {
	t0 := time.Now()
	defer cal.finish()
	c, err := startProc(ctx, "engine", h.self, "-child", "engine",
		"-frames", strconv.Itoa(n), "-start", strconv.Itoa(in.Start), "-procs", strconv.Itoa(procs))
	if err != nil {
		return nil, err
	}
	cal.add(c)
	if err := c.wait(); err != nil {
		return nil, fmt.Errorf("engine child: %w; last output:\n%s", err, c.tail(8))
	}
	samples, pauses := cal.finish()
	line, ok := c.find(`"hash"`)
	if !ok {
		return nil, errors.New("engine child printed no report")
	}
	var rep engineReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return nil, fmt.Errorf("engine child report: %w", err)
	}
	if len(rep.ClientUS) != rep.Presented || len(rep.ClientEndUS) != rep.Presented || len(rep.DoneUS) != rep.Presented {
		return nil, fmt.Errorf("engine child: %d frames but %d client and %d measure spans", rep.Presented, len(rep.ClientUS), len(rep.DoneUS))
	}
	p := &pass{
		Requested: n, Presented: rep.Presented - rep.Dropped, RoIWindow: rep.RoIWindow,
		PresentUS: rep.DoneUS, LatencyUS: rep.ClientUS, LatEndUS: rep.ClientEndUS,
		Bytes: float64(rep.CodedBytes), Client: c.usage(),
		LastPSNR: rep.LastPSNR, Hash: rep.Hash, HeadHash: rep.HeadHash,
		EpochUS: rep.EpochUnixUS, CalibMs: samples, Pauses: pauses, startUS: float64(t0.UnixMicro()),
	}
	return p, nil
}
