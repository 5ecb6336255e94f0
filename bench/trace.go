package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"gamestreamsr"
	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/telemetry"
	"gamestreamsr/internal/upscale"
)

// The traced pass re-creates a workload's frame loop in this process from
// the layers' public functions, one frame in flight, and wraps every call
// into a layer in a span. Spans come from the harness, not from inside the
// program (choosing-metrics §4): what is timed is exactly the call the
// binaries make, with the same inputs.

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the spans-off pass runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// open starts a span at the given instant and returns its ID.
func (t *tracer) open(parent, frame int, layer, name string, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Frame: frame, Layer: layer, Name: name, StartUS: t.us(at)})
	return id
}

func (t *tracer) close(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndUS = t.us(at)
	t.mu.Unlock()
}

// mode is what the composition records during one GOP.
type mode int

const (
	modeOff   mode = iota // run only: warm-up, and the spans-off pass
	modeSpans             // a span around every call
	modeMem               // runtime.ReadMemStats deltas around every call
)

// memDelta is one call's heap allocation.
type memDelta struct{ allocs, bytes float64 }

// comp is one workload's in-process composition.
type comp struct {
	wl     workload
	in     inputs
	first  int    // stream index of the first composed frame, GOP-aligned
	modes  []mode // one per GOP
	w, h   int    // geometry the kernels run at
	pooled bool   // engine_edsr: the Into forms over a bufpool

	tr    *tracer
	memMu sync.Mutex
	mem   map[string][]memDelta

	// Server side.
	game    *games.Workload
	stride  int // script frames per stream frame
	rd      *render.Renderer
	out     render.Output
	sc      *render.Scene
	cam     geom.Camera
	det     *roi.Detector
	enc     *codec.Encoder
	payload []byte // live: the buffer the encoder appends to, as gameSource keeps one
	encHint int    // engine: size of the pooled bitstream buffer to ask for
	replay  *replayFrames

	// Client side.
	dec    *codec.Decoder
	engine sr.Engine
	pool   *bufpool.Pool
	reg    *telemetry.Registry
	prevUp *frame.Image
	gtOut  render.Output

	// Per composed frame.
	coded    []int     // payload bytes
	overhead []float64 // wire bytes beyond the payload
	gopWall  []float64 // ms per GOP
	lastPSNR float64   // engine: the measure stage's PSNR of the last frame
	last     *frame.Image
	handshk  float64 // ms
}

// newComp builds the composition of wl over the GOPs in modes, starting at
// stream frame first. replay is the pre-encoded cycle of a replay workload.
func newComp(wl workload, in inputs, first int, modes []mode, replay *replayFrames) (*comp, error) {
	g, err := games.ByID(gameID)
	if err != nil {
		return nil, err
	}
	c := &comp{wl: wl, in: in, first: first, modes: modes, w: wl.W, h: wl.H, stride: 1,
		game: g, rd: &render.Renderer{}, dec: codec.NewDecoder(), mem: map[string][]memDelta{}, replay: replay}
	roiWin := clientRoIWin
	switch wl.Kind {
	case kindEngine:
		sess, err := gamestreamsr.NewSession(engineConfig(in.Start))
		if err != nil {
			return nil, err
		}
		cfg := sess.Config()
		c.w, c.h, roiWin = sess.SimSize()
		c.stride, c.engine, c.pooled = cfg.FrameStride, cfg.Engine, true
		c.pool, c.reg, c.encHint = bufpool.New(), telemetry.NewRegistry(), 4096
		c.pool.Instrument(c.reg, "bench")
		c.dec.SetPool(c.pool)
	default:
		c.engine = sr.NewFast(sr.FastConfig{})
	}
	if replay == nil {
		if c.det, err = roi.New(roi.Config{WindowW: roiWin, WindowH: roiWin}); err != nil {
			return nil, err
		}
		if c.enc, err = codec.NewEncoder(codec.Config{Width: c.w, Height: c.h, GOPSize: gopSize, QStep: qStep}); err != nil {
			return nil, err
		}
		// Both the live server and the engine hand the encoder a pool for
		// its reconstruction frames.
		encPool := c.pool
		if encPool == nil {
			encPool = bufpool.New()
		}
		c.enc.SetPool(encPool)
	}
	return c, nil
}

func (c *comp) mode(k int) mode { return c.modes[k/gopSize] }

// call runs fn as one call into a layer, recorded per the frame's mode.
func (c *comp) call(k, parent int, layer, name string, fn func()) {
	switch c.mode(k) {
	case modeSpans:
		id := c.tr.open(parent, c.first+k, layer, name, time.Now())
		fn()
		c.tr.close(id, time.Now())
	case modeMem:
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		c.addMem(layer+"."+name, a, b)
	default:
		fn()
	}
}

func (c *comp) addMem(key string, a, b runtime.MemStats) {
	c.memMu.Lock()
	c.mem[key] = append(c.mem[key], memDelta{float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)})
	c.memMu.Unlock()
}

func frameKind(k int) string {
	if k%gopSize == 0 {
		return "intra"
	}
	return "inter"
}

// serverFrame is the server's work for composed frame k: what
// gssr-server's gameSource.NextFrame and the engine's serverFrame do.
func (c *comp) serverFrame(k, parent int) (data []byte, key bool, rect frame.Rect, err error) {
	if c.replay != nil {
		// first is GOP-aligned, so the decoder meets whole GOPs.
		return c.replay.NextFrame(c.first + k)
	}
	c.call(k, parent, "render", "frame", func() {
		c.sc, c.cam = c.game.Frame(c.in.Start + (c.first+k)*c.stride)
		c.rd.RenderInto(&c.out, c.sc, c.cam, c.w, c.h)
	})
	c.call(k, parent, "roi", "detect", func() { rect, err = c.det.Detect(c.out.Depth) })
	if err != nil {
		return nil, false, rect, err
	}
	var ft codec.FrameType
	c.call(k, parent, "codec", "encode_"+frameKind(k), func() {
		dst := c.payload[:0]
		if c.pooled {
			dst = c.pool.Bytes(c.encHint)[:0]
		}
		data, ft, err = c.enc.EncodeInto(dst, c.out.Color)
	})
	if err != nil {
		return nil, false, rect, err
	}
	if c.pooled {
		c.encHint = max(c.encHint, cap(data))
	} else {
		c.payload = data
	}
	if (ft == codec.Intra) != (k%gopSize == 0) {
		return nil, false, rect, fmt.Errorf("composed frame %d coded as %v: GOP out of step", k, ft)
	}
	return data, ft == codec.Intra, rect, nil
}

// clientFrame is the client's work on one received frame: gssr-client's
// receive loop in the allocating forms, or the engine's client stage in the
// pooled ones — serially, so each kernel's time is its own.
func (c *comp) clientFrame(k, parent int, data []byte, rect frame.Rect) (up *frame.Image, err error) {
	var df *codec.DecodedFrame
	c.call(k, parent, "codec", "decode_"+frameKind(k), func() { df, err = c.dec.Decode(data) })
	if err != nil {
		return nil, err
	}
	lr := df.Image
	r := rect.Clamp(lr.W, lr.H)
	if c.pooled {
		up = c.pool.Image(lr.W*scale, lr.H*scale)
		c.call(k, parent, "upscale", "bilinear_into", func() { err = upscale.ResizeInto(up, lr, upscale.Bilinear, c.pool) })
	} else {
		c.call(k, parent, "upscale", "bilinear", func() { up, err = upscale.Resize(lr, lr.W*scale, lr.H*scale, upscale.Bilinear) })
	}
	if err != nil {
		return nil, err
	}
	var crop, hr *frame.Image
	c.call(k, parent, "frame", "crop", func() {
		var sub *frame.Image
		if sub, err = lr.SubImage(r.X, r.Y, r.W, r.H); err != nil {
			return
		}
		if c.pooled {
			crop = c.pool.Image(sub.W, sub.H)
			crop.CopyFrom(sub)
		} else {
			crop = sub.Compact()
		}
	})
	if err != nil {
		return nil, err
	}
	if c.pooled {
		hr = c.pool.Image(crop.W*scale, crop.H*scale)
		c.call(k, parent, "sr", "edsr", func() { err = sr.UpscaleTo(c.engine, hr, crop, scale, c.pool) })
	} else {
		c.call(k, parent, "sr", "roi", func() { hr, err = c.engine.Upscale(crop, scale) })
	}
	if err != nil {
		return nil, err
	}
	c.call(k, parent, "upscale", "merge", func() { err = upscale.Merge(up, hr, r, scale) })
	if c.pooled {
		c.pool.PutImage(hr)
		c.pool.PutImage(crop)
		c.dec.Recycle(df)
		c.pool.PutBytes(data)
	}
	return up, err
}

// measureFrame is the engine's third stage: the ground-truth render at the
// upscaled geometry and the three quality metrics.
func (c *comp) measureFrame(k, parent int, up *frame.Image) (err error) {
	c.call(k, parent, "render", "gt_frame", func() {
		c.rd.RenderInto(&c.gtOut, c.sc, c.cam, c.w*scale, c.h*scale)
	})
	gt := c.gtOut.Color
	c.call(k, parent, "metrics", "psnr", func() { c.lastPSNR, err = metrics.PSNR(gt, up) })
	if err != nil {
		return err
	}
	c.call(k, parent, "metrics", "ssim", func() { _, err = metrics.SSIM(gt, up) })
	if err != nil {
		return err
	}
	c.call(k, parent, "metrics", "lpips", func() { _, err = metrics.LPIPSProxy(gt, up) })
	// As the engine's retireUp: the previous delivered frame is dead once
	// its successor reaches the measure stage.
	if c.prevUp != nil {
		c.pool.PutImage(c.prevUp)
	}
	c.prevUp = up
	return err
}

// structLayer is the layer of the spans that are not calls: a frame's root
// and, under it, one span per side.
const structLayer = "run"

// side opens a frame's root span (root 0) or one side's span under it, when
// the frame is traced.
func (c *comp) side(k, root int, name string, at time.Time) int {
	if c.mode(k) != modeSpans {
		return 0
	}
	return c.tr.open(root, c.first+k, structLayer, name, at)
}

// run composes len(modes) GOPs and fills the per-frame records.
func (c *comp) run() error {
	n := len(c.modes) * gopSize
	c.coded = make([]int, n)
	c.overhead = make([]float64, n)
	c.gopWall = make([]float64, len(c.modes))
	if c.wl.Kind == kindEngine {
		return c.runInProcess(n)
	}
	return c.runWire(n)
}

// runInProcess is the engine's loop without its queues: server, client and
// measure work of each frame back to back.
func (c *comp) runInProcess(n int) error {
	var tGOP time.Time
	for k := 0; k < n; k++ {
		if k%gopSize == 0 {
			tGOP = time.Now()
		}
		root := c.side(k, 0, "frame", time.Now())
		sid := c.side(k, root, "server", time.Now())
		data, _, rect, err := c.serverFrame(k, sid)
		if err != nil {
			return err
		}
		c.coded[k] = len(data)
		c.tr.close(sid, time.Now())
		cid := c.side(k, root, "client", time.Now())
		up, err := c.clientFrame(k, cid, data, rect)
		if err != nil {
			return err
		}
		c.tr.close(cid, time.Now())
		mid := c.side(k, root, "measure", time.Now())
		if err := c.measureFrame(k, mid, up); err != nil {
			return err
		}
		now := time.Now()
		c.tr.close(mid, now)
		c.tr.close(root, now)
		c.last = up
		if k%gopSize == gopSize-1 {
			c.gopWall[k/gopSize] = ms(time.Since(tGOP))
		}
	}
	return nil
}

// sentMsg tells the client side when (and under which spans) the server
// side handed a frame to the session's write.
type sentMsg struct {
	at   time.Time
	root int
	mem  *runtime.MemStats // modeMem only: the heap counters at that instant
}

// wireSource is the composition's stream.FrameSource. stream.Serve calls
// NextFrame(k+1) as soon as frame k's write has returned, which is where
// frame k's send span ends; it then waits for the client side's turn token,
// so one frame is in flight.
type wireSource struct {
	c      *comp
	n      int
	turn   chan struct{} // client → server: the previous frame is done
	sent   chan sentMsg  // server → client; cap 1: one frame in flight
	sendID int
	sideID int
}

func (s *wireSource) NextFrame(k int) ([]byte, bool, frame.Rect, error) {
	now := time.Now()
	s.c.tr.close(s.sendID, now)
	s.c.tr.close(s.sideID, now)
	s.sendID, s.sideID = 0, 0
	if k >= s.n {
		return nil, false, frame.Rect{}, io.EOF
	}
	<-s.turn
	c := s.c
	root := c.side(k, 0, "frame", time.Now())
	s.sideID = c.side(k, root, "server", time.Now())
	data, key, rect, err := c.serverFrame(k, s.sideID)
	if err != nil {
		return nil, false, rect, err
	}
	c.coded[k] = len(data)
	msg := sentMsg{root: root}
	if c.mode(k) == modeMem {
		msg.mem = new(runtime.MemStats)
		runtime.ReadMemStats(msg.mem)
	}
	msg.at = time.Now()
	if c.mode(k) == modeSpans {
		s.sendID = c.tr.open(s.sideID, c.first+k, "stream", "send", msg.at)
	}
	s.sent <- msg
	return data, key, rect, nil
}

// countConn counts the bytes the client side reads off the wire.
type countConn struct {
	net.Conn
	read int
}

func (cc *countConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.read += n
	return n, err
}

// runWire runs the server side under stream.Serve and the client side over
// stream.Client, joined by a loopback TCP pair.
func (c *comp) runWire(n int) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	src := &wireSource{c: c, n: n, turn: make(chan struct{}, 1), sent: make(chan sentMsg, 1)}
	serveErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		defer conn.Close()
		serveErr <- stream.Serve(conn, stream.ServerOptions{
			Accept: stream.Accept{Width: c.w, Height: c.h, GOPSize: gopSize, QStep: qStep},
			Source: src,
		})
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return err
	}
	defer raw.Close()
	conn := &countConn{Conn: raw}
	cl := stream.NewClient(conn)
	t0 := time.Now()
	if _, err := cl.Handshake(stream.Hello{Device: deviceName, RoIWindow: clientRoIWin, Scale: scale, Version: stream.ProtocolVersion}); err != nil {
		return err
	}
	c.handshk = ms(time.Since(t0))

	var tGOP time.Time
	for k := 0; k < n; k++ {
		if k%gopSize == 0 {
			tGOP = time.Now()
		}
		src.turn <- struct{}{}
		before := conn.read
		tCall := time.Now()
		pkt, err := cl.RecvFrame()
		tRet := time.Now()
		if err != nil {
			// A server-side failure surfaces here as a closed stream; its
			// own error says why.
			raw.Close()
			select {
			case serr := <-serveErr:
				err = errors.Join(err, serr)
			case <-time.After(time.Second):
			}
			return fmt.Errorf("composed frame %d: %w", k, err)
		}
		msg := <-src.sent
		c.overhead[k] = float64(conn.read - before - len(pkt.Payload))
		var cid int
		switch c.mode(k) {
		case modeSpans:
			// The client asked for the frame while the server was still
			// making it; the recv span starts when there was something to
			// receive.
			start := tCall
			if msg.at.After(start) {
				start = msg.at
			}
			cid = c.tr.open(msg.root, c.first+k, structLayer, "client", start)
			c.tr.close(c.tr.open(cid, c.first+k, "stream", "recv", start), tRet)
		case modeMem:
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			c.addMem("stream.wire", *msg.mem, m)
		}
		up, err := c.clientFrame(k, cid, pkt.Payload, pkt.RoI)
		if err != nil {
			return err
		}
		now := time.Now()
		c.tr.close(cid, now)
		c.tr.close(msg.root, now)
		c.last = up
		if k%gopSize == gopSize-1 {
			c.gopWall[k/gopSize] = ms(time.Since(tGOP))
		}
	}
	src.turn <- struct{}{} // lets NextFrame(n) end the stream
	if _, err := cl.RecvFrame(); err != io.EOF {
		return fmt.Errorf("composition: want the server's bye after %d frames, got %v", n, err)
	}
	return <-serveErr
}

// layerSource says where a layer metric comes from: the p50 over frames of
// the durations — or allocation counts, or allocated bytes — of the call
// named key, divided by div to reach the metric's unit.
type layerSource struct {
	metric string
	what   int
	div    float64
	key    string
}

const (
	srcDuration = iota // µs
	srcAllocs
	srcAllocBytes
)

var layerSources = []layerSource{
	{"render.frame_ms", srcDuration, 1e3, "render.frame"},
	{"render.frame_allocs", srcAllocs, 1, "render.frame"},
	{"render.gt_frame_ms", srcDuration, 1e3, "render.gt_frame"},
	{"roi.detect_ms", srcDuration, 1e3, "roi.detect"},
	{"roi.detect_allocs", srcAllocs, 1, "roi.detect"},
	{"roi.detect_alloc_kb", srcAllocBytes, 1024, "roi.detect"},
	{"codec.encode_intra_ms", srcDuration, 1e3, "codec.encode_intra"},
	{"codec.encode_inter_ms", srcDuration, 1e3, "codec.encode_inter"},
	{"codec.encode_alloc_kb", srcAllocBytes, 1024, "codec.encode_inter"},
	{"codec.decode_intra_ms", srcDuration, 1e3, "codec.decode_intra"},
	{"codec.decode_inter_ms", srcDuration, 1e3, "codec.decode_inter"},
	{"codec.decode_allocs", srcAllocs, 1, "codec.decode_inter"},
	{"codec.decode_alloc_kb", srcAllocBytes, 1024, "codec.decode_inter"},
	{"stream.send_us", srcDuration, 1, "stream.send"},
	{"stream.recv_us", srcDuration, 1, "stream.recv"},
	{"stream.wire_allocs", srcAllocs, 1, "stream.wire"},
	{"upscale.bilinear_ms", srcDuration, 1e3, "upscale.bilinear"},
	{"upscale.bilinear_allocs", srcAllocs, 1, "upscale.bilinear"},
	{"upscale.bilinear_alloc_kb", srcAllocBytes, 1024, "upscale.bilinear"},
	{"upscale.bilinear_into_ms", srcDuration, 1e3, "upscale.bilinear_into"},
	{"upscale.bilinear_into_allocs", srcAllocs, 1, "upscale.bilinear_into"},
	{"upscale.merge_us", srcDuration, 1, "upscale.merge"},
	{"frame.crop_us", srcDuration, 1, "frame.crop"},
	{"sr.roi_ms", srcDuration, 1e3, "sr.roi"},
	{"sr.roi_allocs", srcAllocs, 1, "sr.roi"},
	{"sr.roi_alloc_kb", srcAllocBytes, 1024, "sr.roi"},
	{"sr.edsr_ms", srcDuration, 1e3, "sr.edsr"},
	{"sr.edsr_allocs", srcAllocs, 1, "sr.edsr"},
	{"sr.edsr_alloc_kb", srcAllocBytes, 1024, "sr.edsr"},
	{"metrics.psnr_ms", srcDuration, 1e3, "metrics.psnr"},
	{"metrics.ssim_ms", srcDuration, 1e3, "metrics.ssim"},
	{"metrics.lpips_ms", srcDuration, 1e3, "metrics.lpips"},
}

// sideRows are the calls whose per-frame sum is a side's serial time. recv
// is left out of the client's: it is delivery, not the device's work, as in
// gssr-client's own latency accounting.
var sideRows = map[string][]string{
	"server":  {"render.frame", "roi.detect", "codec.encode_intra", "codec.encode_inter", "stream.send"},
	"client":  {"codec.decode_intra", "codec.decode_inter", "upscale.bilinear", "upscale.bilinear_into", "frame.crop", "sr.roi", "sr.edsr", "upscale.merge"},
	"measure": {"render.gt_frame", "metrics.psnr", "metrics.ssim", "metrics.lpips"},
}

// perFrameSum sums, per frame, the durations of the spans named by keys, and
// returns the frames' sums (frames with none of them are left out).
func perFrameSum(spans []span, keys []string) []float64 {
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
	}
	sums := map[int]float64{}
	for _, s := range spans {
		if want[s.Layer+"."+s.Name] {
			sums[s.Frame] += s.dur()
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// layerMetrics derives the composition's share of the per-layer metrics.
func (c *comp) layerMetrics(m map[string]float64) {
	for _, ls := range layerSources {
		var xs []float64
		switch ls.what {
		case srcDuration:
			xs = perFrameSum(c.tr.spans, []string{ls.key})
		case srcAllocs:
			for _, d := range c.mem[ls.key] {
				xs = append(xs, d.allocs)
			}
		case srcAllocBytes:
			for _, d := range c.mem[ls.key] {
				xs = append(xs, d.bytes)
			}
		}
		m[ls.metric] = median(xs) / ls.div
	}
	serial := 0.0
	for side, rows := range sideRows {
		v := median(perFrameSum(c.tr.spans, rows)) / 1e3
		serial += v
		if side != "measure" {
			m[side+".serial_ms"] = v
		}
	}
	m["pipeline.serial_sum_ms"] = serial
	m["client.budget_ratio"] = m["client.serial_ms"] / budgetMs

	var intra, inter, over []float64
	for k, b := range c.coded {
		if c.mode(k) == modeOff {
			continue
		}
		if k%gopSize == 0 {
			intra = append(intra, float64(b))
		} else {
			inter = append(inter, float64(b))
		}
		over = append(over, c.overhead[k])
	}
	m["codec.coded_bytes_intra"], m["codec.coded_bytes_inter"] = median(intra), median(inter)
	m["stream.overhead_bytes"] = median(over)
	m["stream.handshake_ms"] = c.handshk
	if c.reg != nil {
		hits := float64(c.reg.Counter("bench_bufpool_hits_total").Value())
		misses := float64(c.reg.Counter("bench_bufpool_misses_total").Value())
		if hits+misses > 0 {
			m["bufpool.hit_ratio"] = hits / (hits + misses)
		}
	}
	if f, ok := c.engine.(interface{ FLOPs(h, w int) int64 }); ok && c.pooled {
		m["sr.edsr_macs"] = float64(f.FLOPs(c.det.Config().WindowH, c.det.Config().WindowW))
	}
}

// modeWall is the wall time, in ms, of the GOPs run in the given mode, the
// warm-up GOP left out.
func (c *comp) modeWall(md mode) float64 {
	sum := 0.0
	for g, m := range c.modes {
		if m == md && g > 0 {
			sum += c.gopWall[g]
		}
	}
	return sum
}

// microLayers times the three fixed-cost primitives the frame loop leans on.
func microLayers(m map[string]float64) {
	const forCalls = 2000
	var a, b runtime.MemStats
	parallel.For(64, func(lo, hi int) {}) // first call starts the pool
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < forCalls; i++ {
		parallel.For(64, func(lo, hi int) {})
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	m["parallel.for_us"] = float64(d.Nanoseconds()) / 1e3 / forCalls
	m["parallel.for_allocs"] = float64(b.Mallocs-a.Mallocs) / forCalls

	const obs = 200_000
	rec := frametrace.New(frametrace.Config{Frames: 64})
	at := time.Now()
	t0 = time.Now()
	for i := 0; i < obs/4; i++ {
		id := rec.BeginFrame(i)
		rec.Span(id, "decode", "decode", at, time.Millisecond)
		rec.Span(id, "upscale", "upscale", at, time.Millisecond)
		rec.Span(id, "sr", "sr", at, time.Millisecond)
	}
	m["frametrace.span_ns"] = float64(time.Since(t0).Nanoseconds()) / obs
	h := telemetry.NewRegistry().Histogram("bench_seconds", telemetry.LatencyBuckets())
	t0 = time.Now()
	for i := 0; i < obs; i++ {
		h.Observe(0.004)
	}
	m["telemetry.observe_ns"] = float64(time.Since(t0).Nanoseconds()) / obs
}

// traceFile is bench/out/trace_<workload>.json. Spans nest frame → server |
// client | measure → call; self_us is a span's duration minus what its
// children cover.
type traceFile struct {
	Env      env         `json:"env"`
	Workload string      `json:"workload"`
	Inputs   inputs      `json:"inputs"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	span
	SelfUS float64 `json:"self_us"`
}

func (t *tracer) file(e env, wl workload, in inputs) traceFile {
	self := selfTimes(t.spans)
	tf := traceFile{Env: e, Workload: wl.Name, Inputs: in}
	for _, s := range t.spans {
		tf.Spans = append(tf.Spans, traceSpan{span: s, SelfUS: self[s.ID]})
	}
	return tf
}

// compose runs the traced composition of wl (replay: over the cycle the real
// pass streamed) over the last GOPs of an n-frame stream, so that its last
// frame is the real run's last frame: a warm-up GOP, TraceGOPs with spans, as
// many with nothing recorded (the tracing overhead is the ratio of the two
// walls), and one GOP of allocation deltas.
func compose(wl workload, in inputs, n int, replay *replayFrames) (c *comp, overhead float64, err error) {
	modes := []mode{modeOff}
	for _, md := range []mode{modeSpans, modeOff} {
		for i := 0; i < wl.TraceGOPs; i++ {
			modes = append(modes, md)
		}
	}
	modes = append(modes, modeMem)
	first := n - len(modes)*gopSize
	if first < 0 || first%gopSize != 0 {
		return nil, 0, fmt.Errorf("composition needs a stream of at least %d whole GOPs, got %d frames", len(modes), n)
	}
	if c, err = newComp(wl, in, first, modes, replay); err != nil {
		return nil, 0, err
	}
	c.tr = &tracer{t0: time.Now()}
	if err := c.run(); err != nil {
		return nil, 0, fmt.Errorf("traced composition: %w", err)
	}
	if base := c.modeWall(modeOff); base > 0 {
		overhead = c.modeWall(modeSpans)/base - 1
	}
	return c, overhead, nil
}
