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
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/telemetry"
)

// This file is the staged frame-loop engine shared by the three pipeline
// runners (GameStreamSR, the NEMO baseline, the §VI SR-integrated decoder).
// The engine owns everything the loops used to hand-copy — the GOP loop,
// drop/freeze handling, lazy ground-truth rendering, result assembly and
// error propagation — while each runner supplies only its variant-specific
// hooks through the Variant interface.
//
// Concurrency model (the paper's Fig. 6 server/client overlap): frames flow
// through three pipeline stages connected by bounded channels, one goroutine
// per stage, so frame i+1's server stages (render, RoI detect, encode) run
// while frame i is being decoded/upscaled and frame i-1 is being measured.
// Every piece of sequential state is confined to the single stage that owns
// it — the encoder and RoI tracker to the server stage, the decoder, the
// network RNG and the freeze/reference frames to the client stage, result
// ordering to the measure stage — so the output is deterministic and
// byte-identical to the old sequential loops at any GOMAXPROCS setting
// (asserted by the determinism tests).

// FrameJob carries one frame through the staged pipeline. The server stage
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
	// RoI is the detected region; zero for variants without a RoI stage.
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
	// InputLat and TransmitLat are the network model's draws for this
	// frame, taken in frame order on the client stage so the RNG sequence
	// matches the sequential loops exactly.
	InputLat    time.Duration
	TransmitLat time.Duration
	// Sched is the session's scheduler client (Config.Sched), riding the
	// job so every stage's kernels are attributed to the same client.
	Sched *parallel.Client

	data []byte // coded bitstream, consumed by the client stage
}

// Variant supplies the runner-specific client and cost stages of the frame
// loop; the server stage is the same Source for every runner, with the RoI
// detector (or none) as data in EngineOptions. The engine calls Upscale
// from the client stage and Cost from the measure stage — each on its own
// goroutine, so a Variant's mutable state must be touched by exactly one of
// them (reference frames belong in Upscale; Cost must be pure).
type Variant interface {
	// Name labels Result.Pipeline.
	Name() string
	// Upscale reconstructs the high-resolution frame from the decoded
	// frame. It owns the variant's sequential client state (NEMO's
	// reference frame, the decoder-buffer cache) and wraps its own errors
	// with the runner's prefix.
	Upscale(df *codec.DecodedFrame, job *FrameJob) (*frame.Image, error)
	// Cost models the per-stage latency and per-rail energy of a delivered
	// frame from the job's geometry, type and network draws.
	Cost(job *FrameJob) (Stages, map[device.Rail]float64, error)
}

// EngineOptions configures a RunEngine invocation.
type EngineOptions struct {
	// Prefix tags engine-level errors ("pipeline", "nemo", "srdecoder").
	Prefix string
	// Net is the session's link model. Its RNG is drawn only on the client
	// stage, in frame order.
	Net *network.Model
	// Drops enables network-loss freeze handling (the GameStreamSR path;
	// the reference-reuse baselines decode every frame).
	Drops bool
	// SimW, SimH is the simulation-resolution geometry.
	SimW, SimH int
	// Detector is the server stage's RoI detector, stabilised over time
	// when Config.RoITrack is set; nil means the runner has no RoI stage
	// (NEMO) and every frame carries the zero rectangle.
	Detector *roi.Detector
	// Depth is the capacity of each inter-stage channel; with S stages,
	// up to S+Depth·(S−1) frames are in flight. Default 2.
	Depth int
	// RecycleUp lets the measure stage return delivered frames to the pool
	// once no later job can reference them. Only safe for variants whose
	// Upscale draws its output from job.Pool and retains no reference to it
	// afterwards (the GameStreamSR variant; NEMO and the SR-decoder keep the
	// previous HR frame as reconstruction state, so they must leave this
	// off). Ignored when Config.KeepFrames retains frames in the results.
	RecycleUp bool
}

// stage is one concurrent step of the engine: a named in-place transform of
// a FrameJob. Stages run on their own goroutines connected by bounded
// channels; the server stage is the generator feeding the first one.
type stage struct {
	name string
	fn   func(*FrameJob) error
	// span records the stage's execution time per frame; wait accumulates
	// the time the stage spent blocked handing a finished job downstream
	// (backpressure). Both are nil-safe no-ops without a Registry.
	span *telemetry.Histogram
	wait *telemetry.Counter
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
	cfg Config
	opt EngineOptions
	v   Variant

	// src is the server stage (render → RoI → encode) and dec the client
	// stage's decoder; each is touched by its stage alone.
	src *Source
	dec *codec.Decoder

	lrPx      int
	byteScale int

	// pool recycles frames, planes and bitstream buffers across the whole
	// run. Checked out and returned from different stages (the pool is
	// mutex-guarded); every consumer fully overwrites what it draws.
	pool *bufpool.Pool
	// gtOut is the measure stage's persistent render target for its lazy
	// ground truth (the server stage's is the Source's).
	gtOut render.Output
	// jobFree recycles FrameJob headers between the measure and server
	// stages. Non-blocking on both ends; misses just allocate.
	jobFree chan *FrameJob
	// encHint is the largest bitstream capacity seen so far, so the server
	// stage checks out a buffer class the client's returns actually refill.
	// Server-stage state.
	encHint int
	// pendingUp is the last delivered frame the measure stage has seen.
	// With RecycleUp it goes back to the pool when the next delivered frame
	// arrives — at that point the client stage has already replaced it as
	// freeze/reference state, and FIFO ordering guarantees no later job
	// still points at it. Measure-stage state.
	pendingUp *frame.Image

	// lastUp is the most recent delivered frame; a dropped frame freezes
	// the display on it. hadDrop tracks whether the decoder's reference
	// state may be missing entirely (keyframe lost at stream start).
	// Client-stage state.
	lastUp  *frame.Image
	hadDrop bool

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

// RunEngine streams nFrames frames through the staged pipeline for the
// given variant and returns the assembled measurements.
func RunEngine(cfg Config, opt EngineOptions, v Variant, nFrames int) (*Result, error) {
	if nFrames <= 0 {
		return nil, fmt.Errorf("%s: invalid frame count %d", opt.Prefix, nFrames)
	}
	if opt.Depth <= 0 {
		opt.Depth = 2
	}
	pool := cfg.Pool
	if pool == nil {
		pool = bufpool.New()
	}
	src, err := newSource(cfg.Game, codec.Config{
		Width: opt.SimW, Height: opt.SimH,
		GOPSize: cfg.GOPSize, QStep: cfg.QStep,
	}, opt.Detector, pool)
	if err != nil {
		return nil, err
	}
	// Each run gets fresh temporal state for RoI tracking.
	if opt.Detector != nil && cfg.RoITrack != nil {
		if src.tracker, err = roi.NewTracker(opt.Detector, *cfg.RoITrack); err != nil {
			return nil, err
		}
	}
	src.start, src.stride = cfg.StartFrame, cfg.FrameStride
	src.rd, src.sched = cfg.Renderer, cfg.Sched
	src.enc.SetSched(cfg.Sched)
	if cfg.Metrics != nil {
		pool.Instrument(cfg.Metrics, opt.Prefix)
	}
	dec := codec.NewDecoder()
	dec.SetPool(pool)
	e := &engineRun{
		cfg: cfg, opt: opt, v: v,
		src: src, dec: dec,
		lrPx:      cfg.LRWidth * cfg.LRHeight,
		byteScale: cfg.SimDiv * cfg.SimDiv,
		pool:      pool,
		jobFree:   make(chan *FrameJob, 3+2*opt.Depth),
		mets:      newEngineMetrics(cfg.Metrics),
		flight:    cfg.Flight,
		stop:      make(chan struct{}),
	}
	return e.run(nFrames)
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

// run wires the stage pipeline and drives it to completion.
func (e *engineRun) run(nFrames int) (*Result, error) {
	res := &Result{Pipeline: e.v.Name(), Device: e.cfg.Device}
	stages := []stage{
		{name: "client", fn: e.clientFrame, span: e.mets.clientSpan, wait: e.mets.clientWait},
		{name: "measure", span: e.mets.measureSpan, fn: func(j *FrameJob) error {
			fr, err := e.measureFrame(j)
			if err != nil {
				return err
			}
			res.Frames = append(res.Frames, fr)
			return nil
		}},
	}

	chans := make([]chan *FrameJob, len(stages))
	for i := range chans {
		chans[i] = make(chan *FrameJob, e.opt.Depth)
	}
	var wg sync.WaitGroup

	// Every stage goroutine runs under pprof labels
	// (session=<Config.Session>, stage=<name>) so CPU and goroutine
	// profiles attribute samples to sessions and stages; goroutines a
	// stage spawns (the SR engine's, render's) inherit them. The measure
	// stage runs on the caller's goroutine, so it uses pprof.Do to restore
	// the caller's labels on return.
	session := e.cfg.Session
	if session == "" {
		session = "pipeline"
	}
	stageLabels := func(stage string) context.Context {
		return pprof.WithLabels(context.Background(), pprof.Labels("session", session, "stage", stage))
	}

	// Generator: the server stage produces jobs in frame order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		pprof.SetGoroutineLabels(stageLabels("server"))
		for i := 0; i < nFrames; i++ {
			t0 := time.Now()
			job, err := e.serverFrame(i)
			if err != nil {
				e.fail(err)
				return
			}
			e.observeSpan(job.ID, "server", e.mets.serverSpan, t0)
			e.mets.frames.Inc()
			e.mets.roiArea.Observe(float64(job.RoI.W * job.RoI.H))
			e.mets.codedBytes.Observe(float64(job.CodedBytes))
			e.mets.codedBytesTotal.Add(int64(job.CodedBytes))
			if e.cfg.Tap != nil {
				// Encode-once fan-out: the tap sees the bitstream here and
				// must copy what it keeps — job.data is recycled once the
				// client stage decodes it.
				e.cfg.Tap.PublishFrame(job.Index, job.data, job.Type == codec.Intra, job.RoI)
			}
			tSend := time.Now()
			select {
			case chans[0] <- job:
				e.mets.serverWait.AddDuration(time.Since(tSend))
			case <-e.stop:
				return
			}
		}
	}()

	// Interior stages: one goroutine each, jobs forwarded in order.
	for i := 0; i < len(stages)-1; i++ {
		wg.Add(1)
		go func(st stage, in <-chan *FrameJob, out chan<- *FrameJob) {
			defer wg.Done()
			defer close(out)
			pprof.SetGoroutineLabels(stageLabels(st.name))
			for job := range in {
				t0 := time.Now()
				if err := st.fn(job); err != nil {
					e.fail(err)
					return
				}
				e.observeSpan(job.ID, st.name, st.span, t0)
				tSend := time.Now()
				select {
				case out <- job:
					st.wait.AddDuration(time.Since(tSend))
				case <-e.stop:
					return
				}
			}
		}(stages[i], chans[i], chans[i+1])
	}

	// The last stage runs on the caller's goroutine and assembles results
	// in arrival order (= frame order, since every channel is FIFO and
	// every stage is a single goroutine).
	last := stages[len(stages)-1]
	pprof.Do(context.Background(), pprof.Labels("session", session, "stage", last.name), func(context.Context) {
		for job := range chans[len(chans)-1] {
			t0 := time.Now()
			if err := last.fn(job); err != nil {
				e.fail(err)
				break
			}
			e.observeSpan(job.ID, last.name, last.span, t0)
			// The job header is fully consumed; hand it back to the server
			// stage (results hold their own copies of anything they keep).
			*job = FrameJob{}
			select {
			case e.jobFree <- job:
			default:
			}
		}
	})
	wg.Wait()
	if e.err != nil {
		return nil, e.err
	}
	return res, nil
}

// serverFrame runs the server stages for frame i — the Source's render at
// simulation resolution, RoI detection and encoding — and wraps the result
// in a job. Owns the Source.
func (e *engineRun) serverFrame(i int) (*FrameJob, error) {
	cfg := e.cfg
	// Claim the flight-recorder frame ID first so the server span and the
	// encode attributes land inside this frame's window (0 when recording
	// is off).
	fid := e.flight.BeginFrame(i)
	// The bitstream buffer travels with the job; the client stage returns
	// it to the pool after decoding, so steady state ping-pongs a few
	// buffers instead of allocating one per frame.
	if e.encHint == 0 {
		e.encHint = 4096
	}
	data, ftype, roiRect, err := e.src.frame(e.pool.Bytes(e.encHint)[:0], i)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.opt.Prefix, err)
	}
	if cap(data) > e.encHint {
		e.encHint = cap(data)
	}
	var job *FrameJob
	select {
	case job = <-e.jobFree:
	default:
		job = &FrameJob{}
	}
	*job = FrameJob{
		Index: i,
		ID:    fid,
		Scene: e.src.scene, Cam: e.src.cam,
		Pool:         e.pool,
		RoI:          roiRect,
		Type:         ftype,
		CodedBytes:   len(data) * e.byteScale,
		NominalBytes: ModelFrameBytes(e.lrPx, cfg.GOPSize, ftype),
		Sched:        cfg.Sched,
		data:         data,
	}
	e.flight.SetEncode(fid, roiRect, job.CodedBytes, job.NominalBytes)
	return job, nil
}

// clientFrame runs the client stages for one frame: the network drop draw,
// decode and the variant's upscale/reconstruction. Owns the decoder, the
// network RNG and the freeze state, so every sequential draw happens in
// frame order exactly as in the old single loop.
func (e *engineRun) clientFrame(job *FrameJob) error {
	// A frame lost in transit — or one that arrives after its reference
	// was lost and therefore cannot be decoded — freezes the display on
	// the last delivered frame while the scene moves on, exactly as with a
	// real codec awaiting the next keyframe.
	frozen := e.opt.Drops && e.opt.Net.Dropped()
	if !frozen {
		df, derr := e.dec.Decode(job.data)
		switch {
		case derr == nil:
			up, err := e.v.Upscale(df, job)
			// The decoded frame is dead once the variant has consumed it
			// (variants copy what they keep; the decoder's own reference
			// retention is handled inside Recycle).
			e.dec.Recycle(df)
			if err != nil {
				return err
			}
			job.Up = up
			job.Display = up
			e.lastUp = up
		case e.hadDrop:
			frozen = true
		default:
			return fmt.Errorf("%s: frame %d decode: %w", e.opt.Prefix, job.Index, derr)
		}
	}
	e.pool.PutBytes(job.data)
	job.data = nil
	if frozen {
		e.hadDrop = true
		job.Frozen = true
		job.Display = e.lastUp // may be nil: nothing on screen yet
		e.mets.frozen.Inc()
		e.flight.SetFrozen(job.ID)
		return nil
	}
	job.InputLat = e.opt.Net.UplinkLatency()
	job.TransmitLat = e.opt.Net.TransmitLatency(job.NominalBytes)
	return nil
}

// renderGT renders the ground-truth frame at upscaled resolution into the
// measure stage's persistent target. It is called lazily from the measure
// stage: dropped frames with nothing on screen never pay for it. The
// returned image is valid until the next renderGT call.
func (e *engineRun) renderGT(job *FrameJob) *frame.Image {
	cfg := e.cfg
	cfg.Renderer.RenderInto(&e.gtOut, job.Scene, job.Cam, e.opt.SimW*cfg.Scale, e.opt.SimH*cfg.Scale)
	return e.gtOut.Color
}

// retireUp recycles the previously delivered frame when a new delivered
// frame reaches the measure stage. At that point the client stage has
// already produced this newer frame, so its freeze/reference state no longer
// points at the old one, and — channels being FIFO — neither does any job
// still in flight. Only active when the variant opted in via RecycleUp and
// results don't retain frames.
func (e *engineRun) retireUp(job *FrameJob) {
	if !e.opt.RecycleUp || e.cfg.KeepFrames || job.Frozen || job.Up == nil {
		return
	}
	if e.pendingUp != nil {
		e.pool.PutImage(e.pendingUp)
	}
	e.pendingUp = job.Up
}

// measureFrame computes the quality, latency and energy record of one
// frame. Pure per-frame work plus result ordering — the only state it
// touches is the Result it appends to.
func (e *engineRun) measureFrame(job *FrameJob) (FrameResult, error) {
	if job.Frozen {
		return e.frozenFrame(job)
	}
	q, err := metrics.Measure(job.Sched, e.renderGT(job), job.Up)
	if err != nil {
		return FrameResult{}, err
	}
	st, energy, err := e.v.Cost(job)
	if err != nil {
		return FrameResult{}, err
	}
	e.observeDeadline(job.ID, st)
	fr := FrameResult{
		Index:  job.Index,
		Type:   job.Type,
		Stages: st,
		RoI:    job.RoI,
		PSNR:   q.PSNR, SSIM: q.SSIM, LPIPS: q.LPIPS,
		Bytes:      job.NominalBytes,
		CodedBytes: job.CodedBytes,
		Energy:     energy,
	}
	if e.cfg.KeepFrames {
		fr.Upscaled = job.Up
	}
	e.retireUp(job)
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

// frozenFrame records a lost frame: the client shows the freeze frame while
// the scene has moved on. No client-side stages or energy are billed, and
// the ground truth is only rendered when there is something to compare.
func (e *engineRun) frozenFrame(job *FrameJob) (FrameResult, error) {
	fr := FrameResult{
		Index:   job.Index,
		Type:    job.Type,
		Dropped: true,
		Bytes:   job.NominalBytes,
		Energy:  map[device.Rail]float64{},
	}
	if job.Display == nil {
		return fr, nil // nothing on screen yet — skip the GT render entirely
	}
	q, err := metrics.Measure(job.Sched, e.renderGT(job), job.Display)
	if err != nil {
		return fr, err
	}
	fr.PSNR, fr.SSIM, fr.LPIPS = q.PSNR, q.SSIM, q.LPIPS
	if e.cfg.KeepFrames {
		fr.Upscaled = job.Display
	}
	return fr, nil
}
