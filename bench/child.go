package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"gamestreamsr"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/stream"
)

// The harness re-executes itself with -child <role> for the two workloads
// that have no binary of their own, so their CPU and RSS are a child's
// rusage like everyone else's.
func runChild(role string, args []string) error {
	switch role {
	case "cycle":
		return childCycle(args)
	case "replay":
		return childReplay(args)
	case "engine":
		return childEngine(args)
	}
	return fmt.Errorf("unknown child role %q", role)
}

// replayFrames is a pre-rendered, pre-encoded run of whole GOPs with the RoI
// the live server would have sent for each frame.
type replayFrames struct {
	Payloads [][]byte
	Rects    []frame.Rect
}

// writeFile and readReplay carry the cycle from the child that builds it to
// the pass's replay server and the traced composition.
func (rf *replayFrames) writeFile(path string) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readReplay(path string) (*replayFrames, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rf := &replayFrames{}
	if err := gob.NewDecoder(f).Decode(rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Payloads) != replayCycle || len(rf.Rects) != replayCycle {
		return nil, fmt.Errorf("%s: a cycle of %d payloads and %d rects, want %d", path, len(rf.Payloads), len(rf.Rects), replayCycle)
	}
	return rf, nil
}

// replayMinPSNR is the least the cycle's own decode must score against the
// frames it was encoded from; q 6 sits near 40 dB, so anything below this is
// a broken bitstream, not quantisation.
const replayMinPSNR = 25.0

// buildReplay renders script frames [start, start+n) of the game at w×h,
// detects each frame's RoI and encodes it exactly as gssr-server's gameSource
// does, and proves the result round-trips through codec.Decoder.
func buildReplay(w, h, start, n int) (*replayFrames, error) {
	g, err := games.ByID(gameID)
	if err != nil {
		return nil, err
	}
	det, err := roi.New(roi.Config{WindowW: clientRoIWin, WindowH: clientRoIWin})
	if err != nil {
		return nil, err
	}
	enc, err := codec.NewEncoder(codec.Config{Width: w, Height: h, GOPSize: gopSize, QStep: qStep})
	if err != nil {
		return nil, err
	}
	dec := codec.NewDecoder()
	rd := &render.Renderer{}
	var out render.Output
	rf := &replayFrames{}
	for k := 0; k < n; k++ {
		g.RenderInto(&out, rd, start+k, w, h)
		rect, err := det.Detect(out.Depth)
		if err != nil {
			return nil, fmt.Errorf("replay frame %d: %w", k, err)
		}
		data, _, err := enc.Encode(out.Color)
		if err != nil {
			return nil, fmt.Errorf("replay frame %d: %w", k, err)
		}
		df, err := dec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("replay frame %d does not decode: %w", k, err)
		}
		if p, err := metrics.PSNR(out.Color, df.Image); err != nil || p < replayMinPSNR {
			return nil, fmt.Errorf("replay frame %d round-trips at %.2f dB (want >= %.0f): %v", k, p, replayMinPSNR, err)
		}
		rf.Payloads = append(rf.Payloads, data)
		rf.Rects = append(rf.Rects, rect)
	}
	return rf, nil
}

// childCycle builds client_replay_720p's cycle and writes it to a file.
func childCycle(args []string) error {
	fs := flag.NewFlagSet("cycle", flag.ContinueOnError)
	w := fs.Int("w", 1280, "stream width")
	h := fs.Int("h", 720, "stream height")
	start := fs.Int("start", 0, "script frame the cycle starts at")
	out := fs.String("out", "", "file to write the cycle to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rf, err := buildReplay(*w, *h, *start, replayCycle)
	if err != nil {
		return err
	}
	return rf.writeFile(*out)
}

// NextFrame replays the cycle from memory (stream.FrameSource).
func (rf *replayFrames) NextFrame(i int) ([]byte, bool, frame.Rect, error) {
	k := i % len(rf.Payloads)
	return rf.Payloads[k], k%gopSize == 0, rf.Rects[k], nil
}

// childReplay is client_replay_720p's server: a stream.MultiServer wired as
// gssr-server wires it, whose source does no per-frame work. Loading the
// cycle the pass has just made is all the set-up this server has.
func childReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	w := fs.Int("w", 1280, "stream width")
	h := fs.Int("h", 720, "stream height")
	cycle := fs.String("cycle", "", "file holding the pre-encoded cycle")
	frames := fs.Int("frames", replayCycle, "frames to stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rf, err := readReplay(*cycle)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &stream.MultiServer{
		Accept:    stream.Accept{Width: *w, Height: *h, GOPSize: gopSize, QStep: qStep},
		MaxFrames: *frames,
		Sched:     parallel.Default(),
		NewSource: func(hello stream.Hello) (stream.FrameSource, error) {
			if hello.RoIWindow != clientRoIWin {
				return nil, fmt.Errorf("client announced RoI window %d, the replay cycle was detected for %d: re-baseline the benchmark", hello.RoIWindow, clientRoIWin)
			}
			return rf, nil
		},
	}
	fmt.Printf("ready addr=%s cpu_ms=%.3f\n", l.Addr(), selfCPUMs())
	return srv.Serve(lingerListener{l}) // until the harness ends this process
}

// lingerListener makes the server's close of a session wait for the client
// to finish reading. stream.MultiServer closes the socket right after its
// Bye; a client that is still frames behind and then sends a heartbeat or a
// Stats report gets a RST back, which discards the frames it had not yet
// read ("short body: unexpected EOF"). gssr-server has the same wart, but
// there the server is the slow side and the client is never behind; here the
// client is the bottleneck by construction, so the replay server half-closes
// and drains until the client hangs up.
type lingerListener struct{ net.Listener }

func (l lingerListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &lingerConn{Conn: c}, nil
}

type lingerConn struct {
	net.Conn
	once sync.Once
	err  error
}

func (c *lingerConn) Close() error {
	c.once.Do(func() {
		if tc, ok := c.Conn.(*net.TCPConn); ok {
			_ = tc.CloseWrite() // the Bye is already queued; this sends FIN after it
		}
		_ = c.Conn.SetReadDeadline(time.Now().Add(workloadTimeout))
		_, _ = io.Copy(io.Discard, c.Conn)
		c.err = c.Conn.Close()
	})
	return c.err
}

// engineReport is what the engine child prints: the run's outcome and the
// per-frame wall-clock spans of its flight recorder.
type engineReport struct {
	Presented   int       `json:"presented"`
	Dropped     int       `json:"dropped"`
	RoIWindow   int       `json:"roi_window"`
	LastPSNR    float64   `json:"last_psnr"`
	CodedBytes  int       `json:"coded_bytes"`
	Hash        string    `json:"hash"`      // sha256 of Result.WriteJSON
	HeadHash    string    `json:"head_hash"` // the same over the first GOP's frames alone
	EpochUnixUS int64     `json:"epoch_unix_us"`
	ClientUS    []float64 `json:"client_us"`     // client stage (decode → bilinear ∥ SR → merge) per frame
	ClientEndUS []float64 `json:"client_end_us"` // when it ended, from the epoch
	DoneUS      []float64 `json:"done_us"`       // measure stage end per frame, from the epoch
}

// engineConfig is engine_edsr's session: the paper's 16-block/64-channel
// EDSR on the RoI through the pooled, overlapped pipeline engine.
func engineConfig(start int) gamestreamsr.Config {
	return gamestreamsr.Config{
		SimDiv: 4, GOPSize: gopSize, StartFrame: start,
		Engine: gamestreamsr.NewEDSR(gamestreamsr.EDSRSpec{}),
	}
}

func childEngine(args []string) error {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	frames := fs.Int("frames", gopSize, "frames to run")
	start := fs.Int("start", 0, "script frame the run starts at")
	procs := fs.Int("procs", 0, "GOMAXPROCS (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	rec := gamestreamsr.NewFlightRecorder(gamestreamsr.FlightConfig{Frames: *frames})
	cfg := engineConfig(*start)
	cfg.Flight = rec
	sess, err := gamestreamsr.NewSession(cfg)
	if err != nil {
		return err
	}
	res, err := sess.Run(*frames)
	if err != nil {
		return err
	}
	_, _, roiWin := sess.SimSize()
	rep := engineReport{Presented: len(res.Frames), Dropped: res.DropCount(), RoIWindow: roiWin}
	if rep.Hash, err = resultHash(res); err != nil {
		return err
	}
	head := *res
	head.Frames = res.Frames[:min(gopSize, len(res.Frames))]
	if rep.HeadHash, err = resultHash(&head); err != nil {
		return err
	}
	for _, f := range res.Frames {
		rep.CodedBytes += f.CodedBytes
		rep.LastPSNR = f.PSNR
	}
	dump := rec.Snapshot()
	rep.EpochUnixUS = dump.EpochUnixMicro
	for _, f := range dump.Frames {
		for _, s := range f.Spans {
			switch s.Name {
			case "client":
				rep.ClientUS = append(rep.ClientUS, float64(s.Duration().Nanoseconds())/1e3)
				rep.ClientEndUS = append(rep.ClientEndUS, float64(s.End.Nanoseconds())/1e3)
			case "measure":
				rep.DoneUS = append(rep.DoneUS, float64(s.End.Nanoseconds())/1e3)
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func resultHash(res *gamestreamsr.Result) (string, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
