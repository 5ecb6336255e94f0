// Package device models the hardware platforms of the paper's evaluation:
// the two mobile clients (Samsung Galaxy Tab S8 with Snapdragon 8 Gen 1 /
// Hexagon, Google Pixel 7 Pro with Tensor G2 / edge TPU) and the gaming
// server (Ryzen 9 5900X + RTX 3080 Ti), §V-A.
//
// The model is a calibrated virtual platform: each engine (NPU, GPU, CPU,
// hardware decoder, display path, radio) has a latency function and a power
// rail, with constants fitted to every absolute number the paper reports —
// EDSR ×2 NPU latency (216 ms full-frame / 16.2 ms for a 300×300 RoI on the
// Tab S8; 233 ms / 16.4 ms on the Pixel), the 1.4 ms GPU bilinear pass, the
// software-vs-hardware decoder gap NEMO is stuck with, and the §IV-B1
// foveal-window arithmetic. Running the same Go kernels the library
// implements under this clock reproduces the *shape* of every latency and
// energy figure without the authors' testbed.
package device

import (
	"fmt"
	"math"
	"time"
)

// Rail identifies a power domain of the client SoC. Energy accounting
// (Fig. 11/12) sums watts × seconds per rail.
type Rail int

const (
	// RailNPU is the NPU/TPU running DNN super resolution.
	RailNPU Rail = iota
	// RailGPU is the mobile GPU (bilinear upscale, merge, composition).
	RailGPU
	// RailCPU is the CPU cluster (software decode, NEMO's MV/residual
	// upscaling, protocol handling).
	RailCPU
	// RailHWDecoder is the fixed-function video decoder.
	RailHWDecoder
	// RailDisplay is the display pipeline (framebuffer scanout work, not
	// panel backlight).
	RailDisplay
	// RailNetwork is the radio receiving the stream.
	RailNetwork
	// RailCamera is the front camera, used only by the eye-tracking
	// alternative the paper rejects (§III-A).
	RailCamera
	railCount
)

var railNames = [railCount]string{"npu", "gpu", "cpu", "hwdec", "display", "network", "camera"}

func (r Rail) String() string {
	if r < 0 || r >= railCount {
		return fmt.Sprintf("Rail(%d)", int(r))
	}
	return railNames[r]
}

// Rails lists every rail in order.
func Rails() []Rail {
	out := make([]Rail, railCount)
	for i := range out {
		out[i] = Rail(i)
	}
	return out
}

// Profile is a calibrated mobile client.
type Profile struct {
	// Name of the device.
	Name string
	// Display geometry (§IV-B1): streamed resolution, native panel width
	// and physical pixel density. The foveal-window arithmetic uses the
	// *content* pixel density PPI·DisplayW/PanelW, since a 2560-wide
	// stream shown on a wider native panel covers more physical inches
	// per stream pixel.
	DisplayW, DisplayH int
	PanelW             int
	PPI                float64

	// NPU EDSR ×2 latency model: L(px) = NPUAlphaUS·px + NPUBetaUS·px²
	// microseconds for an input of px pixels. Fitted per device to the
	// paper's (90 000 px, RoI) and (921 600 px, 720p full frame) points.
	NPUAlphaUS float64
	NPUBetaUS  float64

	// GPUBilinearBaseUS + GPUBilinearPerMPixUS·outMPix is the GPU
	// hardware-filtered bilinear upscale cost for outMPix output pixels.
	GPUBilinearBaseUS    float64
	GPUBilinearPerMPixUS float64

	// GPUMergeUS is the fixed cost of compositing the upscaled RoI into
	// the framebuffer (Fig. 6 step ❾).
	GPUMergeUS float64

	// CPUUpscalePerMPixUS is the cost of NEMO's bilinear MV/residual
	// upscaling + reconstruction on the CPU, per output megapixel.
	CPUUpscalePerMPixUS float64

	// HWDecodePerMPixUS / SWDecodePerMPixUS are hardware and software
	// (libvpx-on-CPU) decode costs per coded megapixel.
	HWDecodePerMPixUS float64
	SWDecodePerMPixUS float64

	// DisplayPerFrameUS is the active scanout/composition cost per
	// displayed frame (this is what the display rail's energy bills).
	DisplayPerFrameUS float64

	// VsyncWaitUS is the mean wait for the next display refresh slot; it
	// adds display latency but burns no rail energy.
	VsyncWaitUS float64

	// Power rails in watts while the engine is active.
	Power [railCount]float64

	// CPUUpscaleWatts is the draw of NEMO's single-threaded NEON
	// MV/residual upscaling — well below the full-cluster RailCPU draw the
	// multi-threaded software decoder sustains.
	CPUUpscaleWatts float64

	// NetworkJPerMB is radio energy per received megabyte.
	NetworkJPerMB float64
}

// TabS8 returns the Samsung Galaxy Tab S8 model (Snapdragon 8 Gen 1,
// Hexagon tensor processor, 11-inch 2560×1600-class 2K display at 274 PPI;
// the paper streams at 2560×1440).
func TabS8() *Profile {
	return &Profile{
		Name:     "Samsung Galaxy Tab S8",
		DisplayW: 2560, DisplayH: 1440,
		PanelW: 2560, // 2560×1600 panel; streamed width matches
		PPI:    274,
		// Fit: 90 000 px → 16 200 µs, 921 600 px → 216 000 µs.
		NPUAlphaUS: 0.174116, NPUBetaUS: 6.5388e-8,
		GPUBilinearBaseUS: 50, GPUBilinearPerMPixUS: 405,
		GPUMergeUS:          120,
		CPUUpscalePerMPixUS: 6800,  // ≈25 ms for a 1440p reconstruction
		HWDecodePerMPixUS:   2200,  // ≈2 ms per 720p frame
		SWDecodePerMPixUS:   16500, // ≈15 ms per 720p frame (libvpx, ARM)
		DisplayPerFrameUS:   6000,  // larger panel than the Pixel
		VsyncWaitUS:         6000,
		Power: [railCount]float64{
			RailNPU:       3.3,
			RailGPU:       1.5,
			RailCPU:       3.0,
			RailHWDecoder: 2.0,
			RailDisplay:   3.0,
			RailNetwork:   0.9,
			RailCamera:    2.6,
		},
		CPUUpscaleWatts: 1.3,
		NetworkJPerMB:   0.24,
	}
}

// Pixel7Pro returns the Google Pixel 7 Pro model (Tensor G2, edge TPU,
// 6.7-inch 3120×1440 LTPO display at 512 PPI; streamed at 2560×1440).
func Pixel7Pro() *Profile {
	return &Profile{
		Name:     "Google Pixel 7 Pro",
		DisplayW: 2560, DisplayH: 1440,
		PanelW: 3120, // 3120×1440 panel; the 2560-wide stream is scaled up
		PPI:    512,
		// Fit: 90 000 px → 16 000 µs, 921 600 px → 233 000 µs.
		NPUAlphaUS: 0.169657, NPUBetaUS: 9.0241e-8,
		GPUBilinearBaseUS: 55, GPUBilinearPerMPixUS: 410,
		GPUMergeUS:          130,
		CPUUpscalePerMPixUS: 7100, // ≈26 ms per 1440p reconstruction
		HWDecodePerMPixUS:   2100,
		SWDecodePerMPixUS:   16800,
		DisplayPerFrameUS:   1500, // smaller panel
		VsyncWaitUS:         6000,
		Power: [railCount]float64{
			RailNPU:       3.4,
			RailGPU:       1.4,
			RailCPU:       3.0,
			RailHWDecoder: 2.0,
			RailDisplay:   1.9,
			RailNetwork:   0.9,
			RailCamera:    2.8, // the paper's measured eye-tracking draw
		},
		CPUUpscaleWatts: 1.3,
		NetworkJPerMB:   0.24,
	}
}

// Profiles returns the two evaluation clients.
func Profiles() []*Profile { return []*Profile{TabS8(), Pixel7Pro()} }

// ProfileByName resolves "s8" / "pixel" style names.
func ProfileByName(name string) (*Profile, error) {
	switch name {
	case "s8", "tabs8", "tab-s8":
		return TabS8(), nil
	case "pixel", "pixel7", "pixel7pro":
		return Pixel7Pro(), nil
	default:
		return nil, fmt.Errorf("device: unknown profile %q (want s8 or pixel)", name)
	}
}

// SRLatency returns the NPU latency of EDSR ×2 over an input of px pixels.
func (p *Profile) SRLatency(px int) time.Duration {
	if px <= 0 {
		return 0
	}
	us := p.NPUAlphaUS*float64(px) + p.NPUBetaUS*float64(px)*float64(px)
	return time.Duration(us * float64(time.Microsecond))
}

// SRLatencyScaled extends the ×2 model to other upscale factors: EDSR's
// cost is dominated by the LR-resolution body (independent of factor) plus
// the upsampler and HR-space tail, which grow with factor². The paper's
// Fig. 3a sweep uses this.
func (p *Profile) SRLatencyScaled(px int, factor float64) time.Duration {
	if px <= 0 || factor <= 0 {
		return 0
	}
	base := p.NPUAlphaUS*float64(px) + p.NPUBetaUS*float64(px)*float64(px)
	// At factor 2 the HR tail is calibrated into the base model; scale the
	// ~18% of cost that lives at HR resolution by (factor/2)².
	const hrShare = 0.18
	us := base * ((1 - hrShare) + hrShare*(factor*factor)/4)
	return time.Duration(us * float64(time.Microsecond))
}

// GPUBilinearLatency returns the GPU cost of bilinearly producing outPx
// output pixels (GL_LINEAR path, §IV-C).
func (p *Profile) GPUBilinearLatency(outPx int) time.Duration {
	if outPx <= 0 {
		return 0
	}
	us := p.GPUBilinearBaseUS + p.GPUBilinearPerMPixUS*float64(outPx)/1e6
	return time.Duration(us * float64(time.Microsecond))
}

// MergeLatency returns the RoI composition cost.
func (p *Profile) MergeLatency() time.Duration {
	return time.Duration(p.GPUMergeUS * float64(time.Microsecond))
}

// CPUUpscaleLatency returns NEMO's CPU-side MV/residual upscale +
// reconstruction cost for outPx output pixels.
func (p *Profile) CPUUpscaleLatency(outPx int) time.Duration {
	if outPx <= 0 {
		return 0
	}
	us := p.CPUUpscalePerMPixUS * float64(outPx) / 1e6
	return time.Duration(us * float64(time.Microsecond))
}

// HWDecodeLatency returns the hardware decoder cost for a coded frame of px
// pixels.
func (p *Profile) HWDecodeLatency(px int) time.Duration {
	if px <= 0 {
		return 0
	}
	us := p.HWDecodePerMPixUS * float64(px) / 1e6
	return time.Duration(us * float64(time.Microsecond))
}

// SWDecodeLatency returns the software (CPU) decoder cost for a coded frame
// of px pixels — the path NEMO is forced onto by its codec modifications.
func (p *Profile) SWDecodeLatency(px int) time.Duration {
	if px <= 0 {
		return 0
	}
	us := p.SWDecodePerMPixUS * float64(px) / 1e6
	return time.Duration(us * float64(time.Microsecond))
}

// DisplayLatency returns the per-frame display-path latency including the
// vsync wait.
func (p *Profile) DisplayLatency() time.Duration {
	return time.Duration((p.DisplayPerFrameUS + p.VsyncWaitUS) * float64(time.Microsecond))
}

// DisplayActive returns the active display-pipeline time per frame — the
// duration the display rail's energy is billed for.
func (p *Profile) DisplayActive() time.Duration {
	return time.Duration(p.DisplayPerFrameUS * float64(time.Microsecond))
}

// MaxRoIPixels returns the largest input pixel count the NPU can
// super-resolve within the deadline — the §IV-B1 "maximum RoI window"
// capability probe (step ❶ of Fig. 6). It inverts the quadratic latency
// model.
func (p *Profile) MaxRoIPixels(deadline time.Duration) int {
	usBudget := float64(deadline) / float64(time.Microsecond)
	if usBudget <= 0 {
		return 0
	}
	a, b := p.NPUBetaUS, p.NPUAlphaUS
	if a <= 0 {
		return int(usBudget / b)
	}
	// a·px² + b·px − budget = 0.
	px := (-b + math.Sqrt(b*b+4*a*usBudget)) / (2 * a)
	if px < 0 {
		return 0
	}
	return int(px)
}

// MaxRoIWindow returns the side of the largest square RoI window processable
// within the deadline, rounded down to a multiple of 4 for codec/tensor
// alignment.
func (p *Profile) MaxRoIWindow(deadline time.Duration) int {
	side := int(math.Sqrt(float64(p.MaxRoIPixels(deadline))))
	return side &^ 3
}

// FovealDiameterInches is the foveal visual diameter on screen for the
// paper's assumptions: 5–6° foveal angle viewed at 30 cm gives
// 2·30cm·tan(3°) ≈ 3.14 cm ≈ 1.25 in (§IV-B1, Fig. 7a).
const FovealDiameterInches = 1.2372

// MinRoIWindow returns the §IV-B1 minimum desired RoI side on the
// low-resolution frame: (content PPI × foveal diameter) / scale factor,
// where content PPI accounts for the stream being scaled onto the native
// panel (see Profile.PanelW).
func (p *Profile) MinRoIWindow(scale int) int {
	if scale <= 0 {
		return 0
	}
	ppi := p.PPI
	if p.PanelW > 0 && p.DisplayW > 0 {
		ppi *= float64(p.DisplayW) / float64(p.PanelW)
	}
	return int(ppi*FovealDiameterInches/float64(scale) + 0.5)
}

// RealTimeDeadline is the 60 FPS frame budget the paper designs for.
const RealTimeDeadline = 16666 * time.Microsecond

// Energy accounting -----------------------------------------------------------

// EnergyMeter integrates rail power over engine-active time.
type EnergyMeter struct {
	profile *Profile
	joules  [railCount]float64
}

// NewEnergyMeter creates a meter bound to a device profile.
func NewEnergyMeter(p *Profile) *EnergyMeter { return &EnergyMeter{profile: p} }

// AddActive charges rail r for d of active time.
func (m *EnergyMeter) AddActive(r Rail, d time.Duration) {
	if d < 0 || r < 0 || r >= railCount {
		return
	}
	m.joules[r] += m.profile.Power[r] * d.Seconds()
}

// AddWatts charges rail r for d of active time at an explicit wattage
// instead of the rail's nominal power — used for partial-engine loads such
// as NEMO's single-threaded CPU upscaling (Profile.CPUUpscaleWatts).
func (m *EnergyMeter) AddWatts(r Rail, watts float64, d time.Duration) {
	if d < 0 || watts < 0 || r < 0 || r >= railCount {
		return
	}
	m.joules[r] += watts * d.Seconds()
}

// AddNetworkBytes charges the radio for receiving n bytes.
func (m *EnergyMeter) AddNetworkBytes(n int) {
	if n <= 0 {
		return
	}
	m.joules[RailNetwork] += m.profile.NetworkJPerMB * float64(n) / 1e6
}

// Joules returns the accumulated energy of one rail.
func (m *EnergyMeter) Joules(r Rail) float64 {
	if r < 0 || r >= railCount {
		return 0
	}
	return m.joules[r]
}

// Total returns the total accumulated energy.
func (m *EnergyMeter) Total() float64 {
	t := 0.0
	for _, j := range m.joules {
		t += j
	}
	return t
}

// NonZero returns the per-rail energy in joules with zero rails omitted —
// the form FrameResult.Energy records.
func (m *EnergyMeter) NonZero() map[Rail]float64 {
	out := map[Rail]float64{}
	for r := Rail(0); r < railCount; r++ {
		if j := m.joules[r]; j != 0 {
			out[r] = j
		}
	}
	return out
}

// Breakdown returns the per-rail energy shares (summing to 1 when total is
// non-zero) — the quantity of the paper's Fig. 12.
func (m *EnergyMeter) Breakdown() map[Rail]float64 {
	out := make(map[Rail]float64, railCount)
	total := m.Total()
	for r := Rail(0); r < railCount; r++ {
		if total > 0 {
			out[r] = m.joules[r] / total
		} else {
			out[r] = 0
		}
	}
	return out
}

// Server model -----------------------------------------------------------------

// Server models the cloud gaming host (§V-A): render and encode latencies
// and the GPU-utilisation observation of §IV-B2.
type Server struct {
	// RenderBaseUS + RenderPerMPixUS·MPix is the frame render latency:
	// AAA frames have a large resolution-independent cost (game logic,
	// geometry, shadow passes) plus a shading cost per pixel.
	RenderBaseUS    float64
	RenderPerMPixUS float64
	// EncodeBaseUS + EncodePerMPixUS·MPix is the NVENC-style hardware
	// encode latency.
	EncodeBaseUS    float64
	EncodePerMPixUS float64
	// RoIDetectPerMPixUS is the depth pre-processing + Algorithm 1 cost on
	// the server GPU's compute shaders per depth-map megapixel.
	RoIDetectPerMPixUS float64
	// UtilBase + UtilPerMPix·renderMPix·60 approximates steady-state GPU
	// utilisation (fraction) when rendering at 60 FPS.
	UtilBase, UtilPerMPix float64
}

// DefaultServer returns the RTX-3080-Ti-class host calibrated to the
// paper's §IV-B2: 79% utilisation at 1440p, 52% at 720p, and RoI detection
// cheap enough to hide inside the rendering stage.
func DefaultServer() *Server {
	return &Server{
		RenderBaseUS:       10000, // ≈11.8 ms at 720p, ≈17.4 ms at 1440p
		RenderPerMPixUS:    2000,
		EncodeBaseUS:       4000, // ≈4.6 ms at 720p, ≈6.2 ms at 1440p
		EncodePerMPixUS:    600,
		RoIDetectPerMPixUS: 650, // ≈0.6 ms on a 720p depth map
		// util(MPix) = base + slope·MPix: 3.6864 → 0.79, 0.9216 → 0.52.
		UtilBase:    0.43,
		UtilPerMPix: 0.09766,
	}
}

// RenderLatency returns the server render cost for a px-pixel frame.
func (s *Server) RenderLatency(px int) time.Duration {
	us := s.RenderBaseUS + s.RenderPerMPixUS*float64(px)/1e6
	return time.Duration(us * float64(time.Microsecond))
}

// EncodeLatency returns the hardware encode cost for a px-pixel frame.
func (s *Server) EncodeLatency(px int) time.Duration {
	us := s.EncodeBaseUS + s.EncodePerMPixUS*float64(px)/1e6
	return time.Duration(us * float64(time.Microsecond))
}

// RoIDetectLatency returns the depth-map processing + search cost.
func (s *Server) RoIDetectLatency(px int) time.Duration {
	return time.Duration(s.RoIDetectPerMPixUS * float64(px) / 1e6 * float64(time.Microsecond))
}

// Utilization returns the steady-state GPU utilisation fraction when
// rendering and encoding px-pixel frames at 60 FPS.
func (s *Server) Utilization(px int) float64 {
	u := s.UtilBase + s.UtilPerMPix*float64(px)/1e6
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}
