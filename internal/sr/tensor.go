// Package sr implements the DNN super-resolution component of GameStreamSR:
// a pure-Go CNN inference engine (one compiled convolution kernel with fused
// ReLU/residual epilogues, pixel-shuffle) instantiating the paper's EDSR ×2
// topology (16 residual blocks, 64 channels, §V-A), plus a fast direct
// kernel computing the same function for full-rate pipeline runs.
//
// Offline training on game corpora is impossible here, so the network's
// weights are *constructed analytically* (see weights.go): the convolution
// stack is wired — using exact ReLU-bypass biasing — to compute a
// high-quality polyphase 2× interpolation followed by detail restoration.
// This preserves both things the evaluation needs from EDSR: its compute
// profile (Network.FLOPs counts every MAC of the real topology, which is
// what the device model bills) and its quality ordering above bilinear
// interpolation, measured on real pixels. The host does not pay for the
// zeros: a network is compiled once into tap lists over its live channels
// (conv.go, edsr.go) and Network.ExecutedMACs says what that costs.
// DESIGN.md records the substitution.
package sr

import (
	"fmt"
	"sync"
)

// Tensor is a CHW float32 tensor.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zeroed C×H×W tensor.
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("sr: invalid tensor shape %dx%dx%d", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) float32 { return t.Data[(c*t.H+y)*t.W+x] }

// Set writes the element at (c, y, x).
func (t *Tensor) Set(c, y, x int, v float32) { t.Data[(c*t.H+y)*t.W+x] = v }

// Plane returns channel c as a sub-slice.
func (t *Tensor) Plane(c int) []float32 {
	n := t.H * t.W
	return t.Data[c*n : (c+1)*n]
}

// Conv2D is a 2D convolution with square kernel K (odd), replicate padding
// and unit stride: the standard EDSR building block.
//
// Weight and Bias are filled after construction and frozen by first use:
// Forward/ForwardInto (and a Network's first inference) compile the layer
// into its tap list once, and later writes to Weight or Bias are not seen.
type Conv2D struct {
	InC, OutC, K int
	// Weight is laid out [outC][inC][K][K].
	Weight []float32
	Bias   []float32

	once sync.Once
	plan *convPlan // the standalone layer: every output, uncompacted tensors
}

// NewConv2D allocates a zero-initialised convolution layer.
func NewConv2D(inC, outC, k int) *Conv2D {
	if k <= 0 || k%2 == 0 {
		panic(fmt.Sprintf("sr: kernel size %d must be odd and positive", k))
	}
	if inC <= 0 || outC <= 0 {
		panic(fmt.Sprintf("sr: invalid channel counts %d -> %d", inC, outC))
	}
	return &Conv2D{
		InC: inC, OutC: outC, K: k,
		Weight: make([]float32, outC*inC*k*k),
		Bias:   make([]float32, outC),
	}
}

// WIndex returns the flat index of weight [oc][ic][ky][kx].
func (c *Conv2D) WIndex(oc, ic, ky, kx int) int {
	return ((oc*c.InC+ic)*c.K+ky)*c.K + kx
}

// Forward applies the convolution. Input must have C == InC.
func (c *Conv2D) Forward(in *Tensor) *Tensor {
	out := NewTensor(c.OutC, in.H, in.W)
	c.ForwardInto(out, in)
	return out
}

// ForwardInto applies the convolution writing into out (shape OutC×H×W),
// on the default scheduler client.
func (c *Conv2D) ForwardInto(out, in *Tensor) {
	c.once.Do(c.compileAll)
	r := startRun(nil)
	r.run(c.plan, out, in)
	r.release()
}

func (c *Conv2D) compileAll() {
	c.plan = c.compile(nil, identity(c.OutC), c.OutC, identity(c.InC), c.InC, epiStore)
}

// ReLU applies max(0, x) in place and returns t.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// FLOPs returns the multiply-accumulate count of one forward pass of conv c
// over an H×W input — used by the device model to translate network size
// into NPU latency.
func (c *Conv2D) FLOPs(h, w int) int64 {
	return int64(c.OutC) * int64(c.InC) * int64(c.K*c.K) * int64(h) * int64(w)
}
