// Package gamestreamsr is a production-quality Go reproduction of
// "GameStreamSR: Enabling Neural-Augmented Game Streaming on Commodity
// Mobile Platforms" (ISCA 2024).
//
// It implements the complete system the paper describes — the server-side
// depth-guided region-of-importance (RoI) detection, the client-side
// RoI-assisted super resolution (DNN SR on the RoI, bilinear elsewhere,
// merged), the NEMO baseline it is evaluated against, the §VI SR-integrated
// decoder prototype — together with every substrate it needs: a software
// game renderer with a real depth buffer, ten procedural game workloads, a
// block-based GOP video codec exposing motion vectors and residuals, a CNN
// inference engine instantiating EDSR, calibrated device latency/energy
// models for the two evaluation handsets, a network model, quality metrics
// (PSNR/SSIM/LPIPS-proxy) and a TCP streaming protocol.
//
// This package is the public facade: it re-exports the types and
// constructors a downstream user needs. Quick start:
//
//	session, err := gamestreamsr.NewSession(gamestreamsr.Config{})
//	if err != nil { ... }
//	result, err := session.Run(60) // one 60-frame GOP
//	fps, _ := result.UpscaleFPS(gamestreamsr.ReferenceFrame)
//
// The experiment harness regenerating every table and figure of the paper
// is exposed via RunExperiment and the `gssr` command.
package gamestreamsr

import (
	"io"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/experiments"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/frametrace"
	"gamestreamsr/internal/games"
	"gamestreamsr/internal/geom"
	"gamestreamsr/internal/metrics"
	"gamestreamsr/internal/nemo"
	"gamestreamsr/internal/pipeline"
	"gamestreamsr/internal/render"
	"gamestreamsr/internal/roi"
	"gamestreamsr/internal/sr"
	"gamestreamsr/internal/srdecoder"
	"gamestreamsr/internal/stream"
	"gamestreamsr/internal/upscale"
)

// Core configuration and results.
type (
	// Config parameterises a streaming session; the zero value reproduces
	// the paper's setup (720p→1440p, GOP 60, Tab S8, G3).
	Config = pipeline.Config
	// Result holds per-frame latency, energy and quality measurements.
	Result = pipeline.Result
	// FrameResult is one frame's measurements.
	FrameResult = pipeline.FrameResult
	// Stages is the per-stage latency breakdown of one frame.
	Stages = pipeline.Stages
	// FrameType distinguishes reference (intra) from non-reference frames.
	FrameType = codec.FrameType
)

// Image and geometry types.
type (
	// Image is the planar RGB frame type used throughout.
	Image = frame.Image
	// DepthMap is the renderer's Z-buffer output.
	DepthMap = frame.DepthMap
	// Rect is a pixel rectangle (RoI coordinates).
	Rect = frame.Rect
)

// Device modelling.
type (
	// DeviceProfile is a calibrated mobile client model.
	DeviceProfile = device.Profile
	// ServerProfile is the cloud gaming host model.
	ServerProfile = device.Server
	// EnergyRail identifies a power domain for energy accounting.
	EnergyRail = device.Rail
)

// RoI detection.
type (
	// RoIConfig parameterises the depth-guided RoI detector: the search
	// window and Algorithm 1's coarse stride, fine stride and boundary. The
	// pre-processing of Fig. 8 is fixed (64 histogram bins, 4 depth layers,
	// the centre-bias Gaussian of amplitude 0.5 and sigma a quarter of the
	// frame's smaller side).
	RoIConfig = roi.Config
	// RoIDetector runs the Fig. 8 pre-processing and Algorithm 1 search.
	RoIDetector = roi.Detector
	// RoIDebug exposes the intermediate pre-processing stages.
	RoIDebug = roi.Debug
	// RoITrackConfig controls temporal RoI stabilisation
	// (Config.RoITrack).
	RoITrackConfig = roi.TrackConfig
	// RoITracker is a detector with temporal state.
	RoITracker = roi.Tracker
)

// NewRoITracker wraps a detector with hysteresis + motion-clamp
// stabilisation for streaming use.
func NewRoITracker(det *RoIDetector, tc RoITrackConfig) (*RoITracker, error) {
	return roi.NewTracker(det, tc)
}

// Super resolution.
type (
	// SREngine super-resolves images by an integer factor.
	SREngine = sr.Engine
	// EDSRSpec describes an EDSR network topology.
	EDSRSpec = sr.Spec
	// Workload is one of the ten paper game benchmarks.
	Workload = games.Workload
	// Renderer is the software game-frame renderer.
	Renderer = render.Renderer
	// InterpolationKind selects a traditional upscaling kernel.
	InterpolationKind = upscale.Kind
)

// Scene construction, for defining custom game workloads (see
// ExampleNewWorkload).
type (
	// Scene is a renderable world for the software renderer.
	Scene = render.Scene
	// SceneObject is one renderable shape with a material.
	SceneObject = render.Object
	// Material controls shading and procedural texturing.
	Material = render.Material
	// RenderOutput bundles a color frame with its depth buffer.
	RenderOutput = render.Output
	// Vec3 is a 3-component vector.
	Vec3 = geom.Vec3
	// Camera is a pinhole camera.
	Camera = geom.Camera
	// Sphere, Box, Triangle and GroundPlane are the renderable primitives.
	Sphere      = geom.Sphere
	Box         = geom.AABB
	Triangle    = geom.Triangle
	GroundPlane = geom.Plane
)

// NewCamera builds a camera at eye looking at target with the given
// vertical field of view (degrees) and aspect ratio.
func NewCamera(eye, target Vec3, vfovDeg, aspect float64) Camera {
	return geom.NewCamera(eye, target, vfovDeg, aspect)
}

// NewWorkload defines a custom game workload from a scene script; it can be
// streamed, RoI-detected and benchmarked exactly like the built-in G1–G10.
func NewWorkload(id, name, genre string, build func(t float64) (*Scene, Camera)) *Workload {
	return games.New(id, name, genre, build)
}

// Frame types.
const (
	// ReferenceFrame is an intra-coded keyframe.
	ReferenceFrame = codec.Intra
	// NonReferenceFrame is an inter-coded dependent frame.
	NonReferenceFrame = codec.Inter
)

// Interpolation kernels.
const (
	Bilinear = upscale.Bilinear
	Bicubic  = upscale.Bicubic
	Lanczos3 = upscale.Lanczos3
	Area     = upscale.Area
)

// RealTimeDeadline is the 60 FPS frame budget (16.66 ms).
const RealTimeDeadline = device.RealTimeDeadline

// Session is a GameStreamSR streaming session (the paper's design).
type Session = pipeline.GameStream

// NewSession builds a GameStreamSR session.
func NewSession(cfg Config) (*Session, error) { return pipeline.NewGameStream(cfg) }

// Variant is one pipeline's client half — ours, NEMO or the §VI decoder —
// as Run takes it.
type Variant = pipeline.Variant

// Run streams nFrames frames through one server pass and every variant's
// client half, scored against one ground truth, and returns one Result per
// variant in argument order: the paper's comparisons on the same stream.
func Run(cfg Config, nFrames int, vs ...Variant) ([]*Result, error) {
	return pipeline.Run(cfg, nFrames, vs...)
}

// Ours is the GameStreamSR variant (what a Session runs).
func Ours() Variant { return pipeline.Ours() }

// NEMO is the SOTA baseline variant (NEMO ported to game streaming).
func NEMO() Variant { return nemo.New() }

// SRDecoder is the §VI future-work SR-integrated decoder variant; kernel
// selects the RoI residual-interpolation kernel (Bicubic per the paper).
func SRDecoder(kernel InterpolationKind) Variant { return srdecoder.New(kernel) }

// Games returns the ten Table I workloads.
func Games() []*Workload { return games.All() }

// GameByID resolves "G1"…"G10".
func GameByID(id string) (*Workload, error) { return games.ByID(id) }

// Devices returns the two evaluation client profiles (Tab S8, Pixel 7 Pro).
func Devices() []*DeviceProfile { return device.Profiles() }

// DeviceByName resolves "s8" or "pixel".
func DeviceByName(name string) (*DeviceProfile, error) { return device.ProfileByName(name) }

// DefaultServer returns the calibrated cloud gaming host model.
func DefaultServer() *ServerProfile { return device.DefaultServer() }

// NewRoIDetector builds a depth-guided RoI detector.
func NewRoIDetector(cfg RoIConfig) (*RoIDetector, error) { return roi.New(cfg) }

// NewFastSR returns the fast super-resolution engine (the deployment-path
// kernel computing what the constructed EDSR weights compute).
func NewFastSR() SREngine { return sr.NewFast(sr.FastConfig{}) }

// NewEDSR returns a real EDSR network with analytically constructed weights
// (see internal/sr): polyphase interpolation plus detail restoration through
// the full conv/ReLU/pixel-shuffle topology.
func NewEDSR(spec EDSRSpec) SREngine { return sr.NewInterpEDSR(spec, sr.InterpConfig{}) }

// BilinearSR returns plain bilinear interpolation wrapped as an engine
// (useful for ablations).
func BilinearSR() SREngine { return sr.BilinearEngine{} }

// Resize resamples an image with a traditional kernel.
func Resize(im *Image, w, h int, k InterpolationKind) (*Image, error) {
	return upscale.Resize(im, w, h, k)
}

// MergeRoI composites a DNN-upscaled RoI patch into a bilinearly upscaled
// frame (the paper's Fig. 6 step ❾).
func MergeRoI(base *Image, roiHR *Image, roiLR Rect, scale int) error {
	return upscale.Merge(base, roiHR, roiLR, scale)
}

// PSNR computes the peak signal-to-noise ratio (dB) on luma.
func PSNR(a, b *Image) (float64, error) { return metrics.PSNR(a, b) }

// SSIM computes the mean structural similarity index.
func SSIM(a, b *Image) (float64, error) { return metrics.SSIM(a, b) }

// LPIPS computes the perceptual-distance proxy in [0, 1] (lower is more
// similar); see internal/metrics for how it relates to the LPIPS the paper
// uses.
func LPIPS(a, b *Image) (float64, error) { return metrics.LPIPSProxy(a, b) }

// Streaming protocol (the Sunshine/Moonlight analogue, §V-A).
type (
	// StreamServer serves concurrent client sessions over TCP.
	StreamServer = stream.MultiServer
	// StreamClient is the client session endpoint.
	StreamClient = stream.Client
	// StreamHello is the client's capability announcement (Fig. 6 ❶).
	StreamHello = stream.Hello
	// StreamAccept is the server's stream-geometry reply.
	StreamAccept = stream.Accept
	// StreamFrame is one coded frame plus its RoI coordinates on the wire.
	StreamFrame = stream.FramePacket
	// StreamInput is a user-input event packet.
	StreamInput = stream.InputPacket
	// StreamStats is the client→server telemetry backchannel report
	// (client-side decode/SR percentiles and end-to-end frame age).
	StreamStats = stream.StatsPacket
	// StreamClock is the handshake-time clock-offset estimate a client
	// uses to place server timestamps on its own clock.
	StreamClock = stream.ClockSync
	// FrameSource supplies coded frames to a server session.
	FrameSource = stream.FrameSource
)

// NewStreamClient wraps an established connection as a client session.
func NewStreamClient(conn io.ReadWriter) *StreamClient { return stream.NewClient(conn) }

// Codec access for building stream sources and clients.
type (
	// CodecConfig parameterises the block codec.
	CodecConfig = codec.Config
	// CodecEncoder turns raw frames into bitstream frames.
	CodecEncoder = codec.Encoder
	// CodecDecoder reconstructs frames from bitstreams.
	CodecDecoder = codec.Decoder
)

// NewCodecEncoder builds a stream encoder.
func NewCodecEncoder(cfg CodecConfig) (*CodecEncoder, error) { return codec.NewEncoder(cfg) }

// NewCodecDecoder builds a stream decoder.
func NewCodecDecoder() *CodecDecoder { return codec.NewDecoder() }

// Per-frame tracing and postmortem flight recording (Config.Flight,
// StreamServer.FlightFrames); see DESIGN.md §11.
type (
	// FlightRecorder records per-frame spans, RoI/bitstream attributes and
	// deadline slack into a fixed ring dumpable as a Perfetto trace.
	FlightRecorder = frametrace.Recorder
	// FlightConfig parameterises the recorder (ring size, deadline, metrics
	// registry, shared streak gauges).
	FlightConfig = frametrace.Config
	// FlightReport is the recorder's deadline/SLO summary.
	FlightReport = frametrace.Report
)

// NewFlightRecorder builds a flight recorder; the zero FlightConfig gives a
// 128-frame ring with the 60 FPS deadline.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder { return frametrace.New(cfg) }

// BufferPool is the size-bucketed frame/plane recycler threaded through the
// frame loop (Encoder.SetPool, Decoder.SetPool; every Run makes its own).
// See DESIGN.md §10 for the ownership and aliasing rules.
type BufferPool = bufpool.Pool

// NewBufferPool builds an empty pool. Call its Instrument method to expose
// hit/miss/bytes-in-flight counters on a telemetry registry.
func NewBufferPool() *BufferPool { return bufpool.New() }

// ExperimentOptions tunes the experiment harness scale.
type ExperimentOptions = experiments.Options

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures by id
// ("tab1", "fig2" … "fig15", "misc"), writing its rows to w.
func RunExperiment(id string, w io.Writer, opt ExperimentOptions) error {
	return experiments.Run(id, w, opt)
}

// RunAllExperiments regenerates every table and figure in order.
func RunAllExperiments(w io.Writer, opt ExperimentOptions) error {
	return experiments.RunAll(w, opt)
}
