package sr

import (
	"math"

	"gamestreamsr/internal/upscale"
)

// reluBias is the positive offset carried through every feature map so the
// ReLUs in the residual blocks act as identities on the constructed signal
// path: activations are kept strictly positive by construction and the
// offset is cancelled exactly by later biases. This is what lets a real
// conv/ReLU stack compute an exact linear filter bank.
const reluBias = 4.0

// InterpConfig tunes the analytically constructed EDSR weights.
type InterpConfig struct {
	// Kernel is the polyphase interpolation backbone realised by the
	// upsampling convolution (default Bicubic; Lanczos3 needs UpK ≥ 7 to
	// avoid truncating the kernel tails).
	Kernel upscale.Kind
	// BlockAlpha is the per-residual-block pre-sharpening strength
	// (default 0.02): each block computes x − α·blur(x), so the 16-block
	// body applies a mild high-frequency emphasis before upsampling.
	BlockAlpha float64
	// Sharpen is the reconstruction convolution's unsharp gain
	// (default 0.5).
	Sharpen float64
}

func (c InterpConfig) withDefaults() InterpConfig {
	if c.Kernel == upscale.Nearest {
		c.Kernel = upscale.Bicubic
	}
	if c.BlockAlpha == 0 {
		c.BlockAlpha = 0.02
	}
	if c.BlockAlpha < 0 {
		c.BlockAlpha = 0
	}
	if c.Sharpen == 0 {
		c.Sharpen = 0.5
	}
	if c.Sharpen < 0 {
		c.Sharpen = 0
	}
	return c
}

// NewInterpEDSR builds an EDSR network whose weights are constructed to
// compute polyphase interpolation with detail emphasis — the stand-in for a
// trained EDSR described in the package comment. The first three feature
// channels carry the RGB signal (offset by reluBias); the remaining
// channels stay at zero.
func NewInterpEDSR(spec Spec, cfg InterpConfig) *Network {
	spec = spec.withDefaults()
	if spec.Channels < 3 {
		spec.Channels = 3
	}
	cfg = cfg.withDefaults()
	n := NewNetwork(spec)
	k := spec.K
	center := k / 2

	// Head: identity on RGB channels plus the ReLU-transparency offset.
	for c := 0; c < 3; c++ {
		n.head.Weight[n.head.WIndex(c, c, center, center)] = 1
		n.head.Bias[c] = reluBias
	}

	// Binomial blur kernel of size k (outer product of binomial rows).
	blur := binomialKernel(k)

	// Residual blocks: x ← x − α·blur(x), offset preserved.
	alpha := float32(cfg.BlockAlpha)
	for bi := range n.body {
		b := &n.body[bi]
		for c := 0; c < 3; c++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					b.conv1.Weight[b.conv1.WIndex(c, c, ky, kx)] = blur[ky*k+kx]
				}
			}
			// conv1 has DC gain 1, so its output carries offset reluBias;
			// conv2 = −α·δ cancels α·reluBias via its bias.
			b.conv2.Weight[b.conv2.WIndex(c, c, center, center)] = -alpha
			b.conv2.Bias[c] = alpha * reluBias
		}
	}

	// Body-end convolution: identity (the global skip then doubles the
	// offset to 2·reluBias and sums x with the body output).
	for c := 0; c < 3; c++ {
		n.bodyEnd.Weight[n.bodyEnd.WIndex(c, c, center, center)] = 1
	}

	// Upsampling convolution: one polyphase interpolation filter per
	// (color, phase) output channel; bias cancels the doubled offset.
	r := spec.Scale
	upK := spec.UpK
	for c := 0; c < 3; c++ {
		for dy := 0; dy < r; dy++ {
			wy := phaseWeights(cfg.Kernel, r, dy, upK)
			for dx := 0; dx < r; dx++ {
				wx := phaseWeights(cfg.Kernel, r, dx, upK)
				oc := c*r*r + dy*r + dx
				for ky := 0; ky < upK; ky++ {
					for kx := 0; kx < upK; kx++ {
						n.up.Weight[n.up.WIndex(oc, c, ky, kx)] = wy[ky] * wx[kx]
					}
				}
				n.up.Bias[oc] = -2 * reluBias
			}
		}
	}

	// Reconstruction convolution: unsharp masking normalised by the DC
	// gain of (identity + body), which is 1 + (1−α)^Blocks.
	dcGain := 1 + math.Pow(1-cfg.BlockAlpha, float64(spec.Blocks))
	s := cfg.Sharpen
	for c := 0; c < 3; c++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				w := -s * float64(blur[ky*k+kx])
				if ky == center && kx == center {
					w += 1 + s
				}
				n.tail.Weight[n.tail.WIndex(c, c, ky, kx)] = float32(w / dcGain)
			}
		}
	}
	return n
}

// phaseWeights returns the 1-D polyphase filter of length upK for output
// phase d of an ×r upsampler using the given kernel, normalised to unit DC
// gain. Tap i (0-based) corresponds to LR offset i−upK/2; the target
// fractional position is (d+0.5)/r − 0.5, matching pixel-center alignment
// in internal/upscale.
func phaseWeights(k upscale.Kind, r, d, upK int) []float32 {
	f := (float64(d)+0.5)/float64(r) - 0.5
	half := upK / 2
	out := make([]float32, upK)
	sum := 0.0
	for i := 0; i < upK; i++ {
		x := float64(i-half) - f
		w := kernelWeight(k, x)
		out[i] = float32(w)
		sum += w
	}
	if sum != 0 {
		inv := float32(1 / sum)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// kernelWeight evaluates the interpolation kernel at distance x. It mirrors
// upscale.Kind.weight, re-derived here because that method is unexported;
// the cross-package agreement is pinned by TestNetworkMatchesResize.
func kernelWeight(k upscale.Kind, x float64) float64 {
	x = math.Abs(x)
	switch k {
	case upscale.Bilinear:
		if x < 1 {
			return 1 - x
		}
		return 0
	case upscale.Bicubic:
		const a = -0.5
		switch {
		case x < 1:
			return (a+2)*x*x*x - (a+3)*x*x + 1
		case x < 2:
			return a*x*x*x - 5*a*x*x + 8*a*x - 4*a
		default:
			return 0
		}
	case upscale.Lanczos3:
		if x < 1e-9 {
			return 1
		}
		if x >= 3 {
			return 0
		}
		px := math.Pi * x
		return 3 * math.Sin(px) * math.Sin(px/3) / (px * px)
	default:
		if x <= 0.5 {
			return 1
		}
		return 0
	}
}

// binomialKernel returns the normalised k×k binomial (Gaussian-ish) blur.
func binomialKernel(k int) []float32 {
	row := make([]float64, k)
	row[0] = 1
	for n := 1; n < k; n++ {
		for i := n; i > 0; i-- {
			row[i] += row[i-1]
		}
	}
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	out := make([]float32, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			out[y*k+x] = float32(row[y] * row[x] / (sum * sum))
		}
	}
	return out
}
