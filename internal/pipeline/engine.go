package pipeline

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/network"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/telemetry"
)

// This file is the staged frame loop every pipeline runs on: one server
// pass (render → RoI detect → encode) feeding the client half of each
// variant — GameStreamSR, the NEMO baseline, the §VI SR-integrated decoder
// — and one ground truth scoring them all. The loop owns everything the
// variants share: the GOP loop, drop/freeze handling, lazy ground-truth
// rendering, result assembly and error propagation; a Variant supplies its
// reconstruction and its cost model.
//
// Concurrency model (the paper's Fig. 6 server/client overlap): frames flow
// through three stages connected by bounded channels, one goroutine per
// stage, so frame i+1's server stage runs while frame i is being decoded and
// upscaled and frame i-1 is being measured. The client stage takes each
// frame through every variant in argument order. Every piece of sequential
// state is confined to the single stage that owns it — the encoder and RoI
// tracker to the server stage; each variant's decoder, link model and
// freeze/reference frame to the client stage; result ordering to the
// measure stage — so the output is deterministic at any GOMAXPROCS setting
// and each variant's results are the same whichever variants run beside it
// (asserted by the determinism tests).

// depth is the capacity of each inter-stage channel: with three stages, up
// to 3+2·depth frames are in flight.
const depth = 2

// FrameJob is one variant's view of one frame in flight. The server stage
// fills the coded-stream fields, the client stage the reconstruction and
// network draws, and the measure stage consumes it into a FrameResult.
type FrameJob struct {
	// Index is the frame number within the run.
	Index int
	// ID is the flight recorder's monotonically increasing frame ID (0 when
	// no recorder is attached). It is claimed on the server stage and rides
	// the job through every stage, so spans and attributes recorded
	// anywhere in the pipeline attach to the same per-frame record.
	ID uint64
	// Scene and Cam let the measure stage render the ground truth lazily
	// (a frozen frame with nothing on screen never needs it).
	Scene *render.Scene
	Cam   geom.Camera
	// Pool is the run's buffer pool. Variants draw their per-frame scratch
	// (tensors, residual planes, RoI patches) from it; anything checked out
	// must be returned before Upscale returns unless it travels in the job.
	Pool *bufpool.Pool
	// RoI is the detected region; zero for variants that do not read it.
	RoI frame.Rect
	// Type is the coded frame type.
	Type codec.FrameType
	// CodedBytes is the real bitstream size scaled to nominal resolution;
	// NominalBytes the modelled wire size (see ModelFrameBytes).
	CodedBytes   int
	NominalBytes int
	// Frozen marks a frame lost in transit (or undecodable after a loss):
	// the client keeps displaying the previous frame.
	Frozen bool
	// Up is the delivered reconstruction (nil when frozen); Display is what
	// the screen shows — Up, or the freeze frame (nil if nothing yet).
	Up      *frame.Image
	Display *frame.Image
	// InputLat and TransmitLat are the variant's link-model draws for this
	// frame, taken in frame order on the client stage.
	InputLat    time.Duration
	TransmitLat time.Duration
}

// Variant is one pipeline's client half: how it turns the shared coded
// stream into displayed frames, and what that costs the device. Run calls
// Upscale from the client stage and Cost from the measure stage, each on
// its own goroutine, with the run's defaulted Config; a Variant holds no
// per-run state (its reference frame is the prev Run hands it), so one
// value serves any number of runs.
type Variant interface {
	// Name labels Result.Pipeline and prefixes the variant's errors.
	Name() string
	// ReadsRoI reports whether the variant uses the server stage's RoI.
	// One that does not gets jobs, and so results, with the zero rectangle.
	ReadsRoI() bool
	// KeepsReference reports whether the variant reconstructs from its last
	// delivered frame (NEMO, the §VI decoder). Such a variant decodes every
	// frame — a lost frame would leave it nothing to reconstruct from, so
	// the reference-reuse baselines run on a lossless link — and its frames
	// never go back to the pool. A variant without a reference freezes on
	// network loss, and draws its frames from job.Pool without retaining
	// them, so the measure stage recycles each once no later job can
	// reference it (unless Config.KeepFrames keeps them in the results).
	KeepsReference() bool
	// Upscale reconstructs the high-resolution frame from the decoded one;
	// prev is the variant's last delivered frame (nil before the first).
	Upscale(cfg *Config, df *codec.DecodedFrame, job *FrameJob, prev *frame.Image) (*frame.Image, error)
	// Cost models the client and link stages' latency and the per-rail
	// energy of a delivered frame from the job's geometry, type and network
	// draws; the measure stage adds the server stages (see server).
	Cost(cfg *Config, job *FrameJob) (Stages, map[device.Rail]float64, error)
}

// server is the host the measure stage bills every variant's server stages
// on: render and encode, and RoI detection for a variant that reads the RoI.
var server = device.DefaultServer()

// frameSet is one frame in flight: the server stage's bitstream and RoI,
// and every variant's job for it, in argument order.
type frameSet struct {
	jobs []FrameJob
	data []byte     // coded bitstream, consumed by the client stage
	roi  frame.Rect // detected RoI, whichever variants read it
}

// variantRun is one variant's state within a run.
type variantRun struct {
	v        Variant
	roi, ref bool // v.ReadsRoI(), v.KeepsReference()
	res      *Result

	// dec and net are the variant's decoder and link model. lastUp is its
	// most recent delivered frame — the freeze frame, and the reference a
	// KeepsReference variant reconstructs from; hadDrop tracks whether the
	// decoder's reference state may be missing entirely (keyframe lost at
	// stream start). Client-stage state.
	dec     *codec.Decoder
	net     *network.Model
	lastUp  *frame.Image
	hadDrop bool
	// pendingUp is the last delivered frame the measure stage has seen; a
	// variant without a reference returns it to the pool when the next
	// delivered frame arrives — by then the client stage has replaced it as
	// freeze state, and FIFO ordering guarantees no later job still points
	// at it. Measure-stage state.
	pendingUp *frame.Image
}

// engineMetrics holds the engine's telemetry handles, resolved once per run
// so the per-frame hot path never touches the registry's map. Every field
// is a nil no-op when Config.Metrics is nil.
type engineMetrics struct {
	serverSpan, clientSpan, measureSpan *telemetry.Histogram
	serverWait, clientWait              *telemetry.Counter
	frames, frozen, codedBytesTotal     *telemetry.Counter
	roiArea, codedBytes                 *telemetry.Histogram
}

func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	lat := telemetry.LatencyBuckets()
	return engineMetrics{
		serverSpan:      reg.Histogram("pipeline_server_stage_seconds", lat),
		clientSpan:      reg.Histogram("pipeline_client_stage_seconds", lat),
		measureSpan:     reg.Histogram("pipeline_measure_stage_seconds", lat),
		serverWait:      reg.Counter("pipeline_server_queue_wait_ns_total"),
		clientWait:      reg.Counter("pipeline_client_queue_wait_ns_total"),
		frames:          reg.Counter("pipeline_frames_total"),
		frozen:          reg.Counter("pipeline_frames_frozen_total"),
		codedBytesTotal: reg.Counter("pipeline_coded_bytes_total"),
		roiArea:         reg.Histogram("pipeline_roi_area_px", []float64{64, 256, 1024, 4096, 16384, 65536, 262144}),
		codedBytes:      reg.Histogram("pipeline_coded_frame_bytes", telemetry.ByteBuckets()),
	}
}

// engineRun is the per-Run state of the engine.
type engineRun struct {
	cfg        Config
	simW, simH int
	vs         []variantRun

	// src is the server stage (render → RoI → encode), touched by that
	// stage alone.
	src *Source

	lrPx      int
	byteScale int

	// pool recycles frames, planes and bitstream buffers across the whole
	// run. Checked out and returned from different stages (the pool is
	// mutex-guarded); every consumer fully overwrites what it draws.
	pool *bufpool.Pool
	// gtOut is the measure stage's persistent render target for its lazy
	// ground truth (the server stage's is the Source's).
	gtOut render.Output
	// setFree recycles frame sets between the measure and server stages,
	// sized to the most that can be in flight (3+2·depth). Non-blocking on
	// both ends; misses just allocate.
	setFree chan *frameSet
	// encHint is the largest bitstream capacity seen so far, so the server
	// stage checks out a buffer class the client's returns actually refill.
	// Server-stage state.
	encHint int

	// mets are the pre-resolved (optional) metric handles.
	mets engineMetrics
	// flight is the optional per-frame flight recorder; every method is a
	// nil-safe no-op. latScratch is the measure stage's reusable buffer for
	// deadline accounting, so ObserveDeadline costs no allocation per frame.
	flight     *frametrace.Recorder
	latScratch [3]frametrace.StageLatency

	stop chan struct{}
	once sync.Once
	err  error
}

// Run streams nFrames frames of cfg's game through one server pass and
// every variant's client half, scoring each against one ground truth, and
// returns one Result per variant in argument order. With more than one
// variant, the stage spans time the whole stage (every variant), and the
// per-frame facts a variant owns — its frozen frames and its deadline — are
// recorded for the first variant only.
func Run(cfg Config, nFrames int, vs ...Variant) ([]*Result, error) {
	if nFrames <= 0 {
		return nil, fmt.Errorf("pipeline: invalid frame count %d", nFrames)
	}
	if len(vs) == 0 {
		return nil, fmt.Errorf("pipeline: no variants")
	}
	cfg = cfg.WithDefaults()
	simW, simH, simRoI, err := cfg.simGeometry()
	if err != nil {
		return nil, err
	}
	pool := bufpool.New()
	e := &engineRun{
		cfg: cfg, simW: simW, simH: simH,
		vs:        make([]variantRun, len(vs)),
		lrPx:      cfg.LRWidth * cfg.LRHeight,
		byteScale: cfg.SimDiv * cfg.SimDiv,
		pool:      pool,
		setFree:   make(chan *frameSet, 3+2*depth),
		mets:      newEngineMetrics(cfg.Metrics),
		flight:    cfg.Flight,
		stop:      make(chan struct{}),
	}
	var det *roi.Detector
	for i, v := range vs {
		dec := codec.NewDecoder()
		dec.SetPool(pool)
		e.vs[i] = variantRun{
			v: v, roi: v.ReadsRoI(), ref: v.KeepsReference(),
			res: &Result{Pipeline: v.Name(), Device: cfg.Device},
			dec: dec, net: network.New(cfg.Net),
		}
		if e.vs[i].roi && det == nil {
			if det, err = roi.New(roi.Config{WindowW: simRoI, WindowH: simRoI}); err != nil {
				return nil, err
			}
		}
	}
	if e.src, err = newSource(cfg.Game, codec.Config{
		Width: simW, Height: simH,
		GOPSize: cfg.GOPSize, QStep: cfg.QStep,
	}, det, pool); err != nil {
		return nil, err
	}
	// Each run gets fresh temporal state for RoI tracking.
	if det != nil && cfg.RoITrack != nil {
		if e.src.tracker, err = roi.NewTracker(det, *cfg.RoITrack); err != nil {
			return nil, err
		}
	}
	e.src.start, e.src.stride = cfg.StartFrame, cfg.FrameStride
	if cfg.Metrics != nil {
		pool.Instrument(cfg.Metrics, "pipeline")
	}
	if err := e.run(nFrames); err != nil {
		return nil, err
	}
	out := make([]*Result, len(e.vs))
	for i := range e.vs {
		out[i] = e.vs[i].res
	}
	return out, nil
}

// observeSpan records one stage execution in the span histogram and in the
// flight recorder's per-frame record. Called concurrently from every stage
// goroutine; the recorder locks per frame slot.
func (e *engineRun) observeSpan(id uint64, lane string, h *telemetry.Histogram, t0 time.Time) {
	d := time.Since(t0)
	h.ObserveDuration(d)
	e.flight.Span(id, lane, lane, t0, d)
}

// fail records the first error and releases every blocked stage.
func (e *engineRun) fail(err error) {
	e.once.Do(func() {
		e.err = err
		close(e.stop)
	})
}

// send hands set downstream on out, adding the time it waited to wait;
// false means the run has failed and the stage should return.
func (e *engineRun) send(out chan<- *frameSet, set *frameSet, wait *telemetry.Counter) bool {
	t0 := time.Now()
	select {
	case out <- set:
		wait.AddDuration(time.Since(t0))
		return true
	case <-e.stop:
		return false
	}
}

// run wires the three stages and drives them to completion.
//
// Every stage goroutine runs under pprof labels (session=<Config.Session>,
// stage=<name>) so CPU and goroutine profiles attribute samples to sessions
// and stages; goroutines a stage spawns (the SR engine's, render's) inherit
// them. The measure stage runs on the caller's goroutine, so it uses
// pprof.Do to restore the caller's labels on return.
func (e *engineRun) run(nFrames int) error {
	session := e.cfg.Session
	if session == "" {
		session = "pipeline"
	}
	labels := func(stage string) pprof.LabelSet { return pprof.Labels("session", session, "stage", stage) }
	encoded := make(chan *frameSet, depth)
	decoded := make(chan *frameSet, depth)
	var wg sync.WaitGroup
	wg.Add(2)

	// Server stage: produces frame sets in frame order.
	go func() {
		defer wg.Done()
		defer close(encoded)
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), labels("server")))
		for i := 0; i < nFrames; i++ {
			t0 := time.Now()
			set, err := e.serverFrame(i)
			if err != nil {
				e.fail(err)
				return
			}
			job := &set.jobs[0]
			e.observeSpan(job.ID, "server", e.mets.serverSpan, t0)
			e.mets.frames.Inc()
			e.mets.roiArea.Observe(float64(set.roi.W * set.roi.H))
			e.mets.codedBytes.Observe(float64(job.CodedBytes))
			e.mets.codedBytesTotal.Add(int64(job.CodedBytes))
			if e.cfg.Tap != nil {
				// The tap sees the bitstream the client stage will decode
				// and must copy what it keeps — set.data is recycled once
				// the client stage has decoded it.
				e.cfg.Tap.PublishFrame(job.Index, set.data, job.Type == codec.Intra, set.roi)
			}
			if !e.send(encoded, set, e.mets.serverWait) {
				return
			}
		}
	}()

	// Client stage: every variant decodes and upscales each frame.
	go func() {
		defer wg.Done()
		defer close(decoded)
		pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), labels("client")))
		for set := range encoded {
			t0 := time.Now()
			if err := e.clientFrame(set); err != nil {
				e.fail(err)
				return
			}
			e.observeSpan(set.jobs[0].ID, "client", e.mets.clientSpan, t0)
			if !e.send(decoded, set, e.mets.clientWait) {
				return
			}
		}
	}()

	// Measure stage, on the caller's goroutine: results are assembled in
	// arrival order (= frame order, since every channel is FIFO and every
	// stage is a single goroutine).
	pprof.Do(context.Background(), labels("measure"), func(context.Context) {
		for set := range decoded {
			t0 := time.Now()
			if err := e.measureFrame(set); err != nil {
				e.fail(err)
				break
			}
			e.observeSpan(set.jobs[0].ID, "measure", e.mets.measureSpan, t0)
			// The set is fully consumed; hand it back to the server stage
			// (results hold their own copies of anything they keep).
			clear(set.jobs)
			select {
			case e.setFree <- set:
			default:
			}
		}
	})
	wg.Wait()
	return e.err
}

// serverFrame runs the server stage for frame i — the Source's render at
// simulation resolution, RoI detection and encoding — and gives every
// variant its job for it. Owns the Source.
func (e *engineRun) serverFrame(i int) (*frameSet, error) {
	// Claim the flight-recorder frame ID first so the server span and the
	// encode attributes land inside this frame's window (0 when recording
	// is off).
	fid := e.flight.BeginFrame(i)
	// The bitstream buffer travels with the set; the client stage returns
	// it to the pool after decoding, so steady state ping-pongs a few
	// buffers instead of allocating one per frame.
	if e.encHint == 0 {
		e.encHint = 4096
	}
	data, ftype, roiRect, err := e.src.frame(e.pool.Bytes(e.encHint)[:0], i)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	e.encHint = max(e.encHint, cap(data))
	var set *frameSet
	select {
	case set = <-e.setFree:
	default:
		set = &frameSet{jobs: make([]FrameJob, len(e.vs))}
	}
	set.data, set.roi = data, roiRect
	job := FrameJob{
		Index: i,
		ID:    fid,
		Scene: e.src.scene, Cam: e.src.cam,
		Pool:         e.pool,
		RoI:          roiRect,
		Type:         ftype,
		CodedBytes:   len(data) * e.byteScale,
		NominalBytes: ModelFrameBytes(e.lrPx, e.cfg.GOPSize, ftype),
	}
	for k := range e.vs {
		set.jobs[k] = job
		if !e.vs[k].roi {
			set.jobs[k].RoI = frame.Rect{}
		}
	}
	e.flight.SetEncode(fid, roiRect, job.CodedBytes, job.NominalBytes)
	return set, nil
}

// clientFrame takes one frame through every variant's client half, then
// returns the bitstream to the pool.
func (e *engineRun) clientFrame(set *frameSet) error {
	for k := range e.vs {
		if err := e.deliver(k, &set.jobs[k], set.data); err != nil {
			return err
		}
	}
	e.pool.PutBytes(set.data)
	set.data = nil
	return nil
}

// deliver runs variant k's client half for one frame: the network drop
// draw, decode and the variant's upscale/reconstruction. Owns the variant's
// decoder, link model and freeze state, so every sequential draw happens in
// frame order.
func (e *engineRun) deliver(k int, job *FrameJob, data []byte) error {
	vr := &e.vs[k]
	// A frame lost in transit — or one that arrives after its reference
	// was lost and therefore cannot be decoded — freezes the display on
	// the last delivered frame while the scene moves on, exactly as with a
	// real codec awaiting the next keyframe.
	frozen := !vr.ref && vr.net.Dropped()
	if !frozen {
		df, derr := vr.dec.Decode(data)
		switch {
		case derr == nil:
			up, err := vr.v.Upscale(&e.cfg, df, job, vr.lastUp)
			// The decoded frame is dead once the variant has consumed it
			// (variants copy what they keep; the decoder's own reference
			// retention is handled inside Recycle).
			vr.dec.Recycle(df)
			if err != nil {
				return err
			}
			job.Up, job.Display, vr.lastUp = up, up, up
		case vr.hadDrop:
			frozen = true
		default:
			return fmt.Errorf("%s: frame %d decode: %w", vr.v.Name(), job.Index, derr)
		}
	}
	if frozen {
		vr.hadDrop = true
		job.Frozen = true
		job.Display = vr.lastUp // may be nil: nothing on screen yet
		if k == 0 {
			e.mets.frozen.Inc()
			e.flight.SetFrozen(job.ID)
		}
		return nil
	}
	job.InputLat = vr.net.UplinkLatency()
	job.TransmitLat = vr.net.TransmitLatency(job.NominalBytes)
	return nil
}

// renderGT renders the ground-truth frame at upscaled resolution into the
// measure stage's persistent target. It is called lazily from the measure
// stage: a frame no variant has anything on screen for never pays for it.
// The returned image is valid until the next renderGT call. It shares the
// server stage's (stateless) renderer.
func (e *engineRun) renderGT(job *FrameJob) *frame.Image {
	scale := e.cfg.Scale
	e.src.rd.RenderInto(&e.gtOut, job.Scene, job.Cam, e.simW*scale, e.simH*scale)
	return e.gtOut.Color
}

// measureFrame scores every variant's view of one frame against one ground
// truth and appends each variant's FrameResult.
func (e *engineRun) measureFrame(set *frameSet) error {
	var gt *frame.Image
	for k := range e.vs {
		job := &set.jobs[k]
		if job.Display != nil && gt == nil {
			gt = e.renderGT(job)
		}
		fr, err := e.frameResult(k, job, gt)
		if err != nil {
			return err
		}
		e.vs[k].res.Frames = append(e.vs[k].res.Frames, fr)
	}
	return nil
}

// frameResult computes variant k's quality, latency and energy record of
// one frame against gt (nil when the job has nothing on screen). A frozen
// frame shows the freeze frame while the scene has moved on: no client-side
// stages or energy are billed.
func (e *engineRun) frameResult(k int, job *FrameJob, gt *frame.Image) (FrameResult, error) {
	vr := &e.vs[k]
	fr := FrameResult{
		Index: job.Index,
		Type:  job.Type,
		Bytes: job.NominalBytes,
	}
	if job.Frozen {
		fr.Dropped = true
		fr.Energy = map[device.Rail]float64{}
	} else {
		st, energy, err := vr.v.Cost(&e.cfg, job)
		if err != nil {
			return fr, err
		}
		st.Render, st.Encode = server.RenderLatency(e.lrPx), server.EncodeLatency(e.lrPx)
		if vr.roi {
			st.RoIDetect = server.RoIDetectLatency(e.lrPx)
		}
		if k == 0 {
			e.observeDeadline(job.ID, st)
		}
		fr.Stages, fr.RoI, fr.CodedBytes, fr.Energy = st, job.RoI, job.CodedBytes, energy
	}
	if job.Display == nil {
		return fr, nil // nothing on screen yet
	}
	q, err := metrics.Measure(gt, job.Display)
	if err != nil {
		return fr, err
	}
	fr.PSNR, fr.SSIM, fr.LPIPS = q.PSNR, q.SSIM, q.LPIPS
	if e.cfg.KeepFrames {
		fr.Upscaled = job.Display
	} else if !vr.ref && !job.Frozen {
		// Recycle the previously delivered frame: the client stage has
		// already produced this newer one, so neither its freeze state nor
		// — channels being FIFO — any job still in flight points at the
		// old one.
		if vr.pendingUp != nil {
			e.pool.PutImage(vr.pendingUp)
		}
		vr.pendingUp = job.Up
	}
	return fr, nil
}

// observeDeadline accounts one delivered frame's modelled client-side
// latency (decode + upscale + display — the work the device must finish
// inside the 16.66 ms budget of §IV) against the flight recorder's
// deadline. Runs on the measure stage only, in frame order, reusing the
// engine's scratch buffer so the hot path stays allocation-free. Frozen
// frames never reach it: they have no client-side stages.
func (e *engineRun) observeDeadline(id uint64, st Stages) {
	if e.flight == nil {
		return
	}
	e.latScratch[0] = frametrace.StageLatency{Name: "decode", D: st.Decode}
	e.latScratch[1] = frametrace.StageLatency{Name: "upscale", D: st.Upscale}
	e.latScratch[2] = frametrace.StageLatency{Name: "display", D: st.Display}
	e.flight.ObserveDeadline(id, e.latScratch[:])
}
