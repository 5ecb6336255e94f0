package sr

import (
	"fmt"
	"sync"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// Spec describes an EDSR-family network. The paper's model is the default:
// 16 residual blocks, 64 channels, ×2 upscale (§V-A).
type Spec struct {
	// Blocks is the residual-block count (default 16).
	Blocks int
	// Channels is the feature width (default 64).
	Channels int
	// Scale is the upscale factor (default 2).
	Scale int
	// K is the kernel size of head/body convolutions (default 3).
	K int
	// UpK is the kernel size of the upsampling convolution (default 5,
	// large enough to hold a 4-tap polyphase interpolator per phase).
	UpK int
}

func (s Spec) withDefaults() Spec {
	if s.Blocks <= 0 {
		s.Blocks = 16
	}
	if s.Channels <= 0 {
		s.Channels = 64
	}
	if s.Scale <= 0 {
		s.Scale = 2
	}
	if s.K <= 0 {
		s.K = 3
	}
	if s.UpK <= 0 {
		s.UpK = 5
	}
	return s
}

// resBlock is the EDSR residual block: x + conv2(ReLU(conv1(x))).
type resBlock struct {
	conv1, conv2 *Conv2D
}

// Network is an EDSR ×N super-resolution network: head convolution,
// residual body with global skip, sub-pixel upsampler and reconstruction
// convolution.
//
// The layers hold the weights; inference runs the program compiled from
// them on first use (see compile). Weights are frozen from then on.
type Network struct {
	spec    Spec
	head    *Conv2D // 3 -> C
	body    []resBlock
	bodyEnd *Conv2D // C -> C, followed by global skip
	up      *Conv2D // C -> C·scale²  (pixel-shuffled to C at HR)
	tail    *Conv2D // C -> 3 at HR

	sched *parallel.Client
	once  sync.Once
	prog  *program
}

// SetSched attributes all of the network's layer parallelism to the
// scheduler client c (nil reverts to the default client) — how a streaming
// session makes its inference work schedulable against other sessions.
func (n *Network) SetSched(c *parallel.Client) { n.sched = c }

// NewNetwork allocates an EDSR network with all-zero weights; callers fill
// the weights (see NewInterpEDSR and NewRandomEDSR) before the first
// inference.
func NewNetwork(spec Spec) *Network {
	spec = spec.withDefaults()
	n := &Network{
		spec:    spec,
		head:    NewConv2D(3, spec.Channels, spec.K),
		bodyEnd: NewConv2D(spec.Channels, spec.Channels, spec.K),
		up:      NewConv2D(spec.Channels, spec.Channels*spec.Scale*spec.Scale, spec.UpK),
		tail:    NewConv2D(spec.Channels, 3, spec.K),
	}
	for i := 0; i < spec.Blocks; i++ {
		n.body = append(n.body, resBlock{
			conv1: NewConv2D(spec.Channels, spec.Channels, spec.K),
			conv2: NewConv2D(spec.Channels, spec.Channels, spec.K),
		})
	}
	return n
}

// Spec returns the network's architecture parameters.
func (n *Network) Spec() Spec { return n.spec }

// Name implements Engine.
func (n *Network) Name() string {
	return fmt.Sprintf("edsr(b%d,c%d,x%d)", n.spec.Blocks, n.spec.Channels, n.spec.Scale)
}

// program is a network compiled for execution: one plan per layer over
// tensors that hold live channels only (the plans' srcC/dstC are their
// plane counts).
type program struct {
	head    *convPlan
	body    [][2]*convPlan // conv1 (ReLU fused), conv2 (x += fused)
	bodyEnd *convPlan      // h += fused: the global skip
	up      *convPlan
	tail    *convPlan
}

// compile builds the program. A backward pass from the three output planes
// through tail → pixel-shuffle → up → global skip → body → head marks the
// channels of each intermediate tensor that are ever read; only those get a
// plane and only their output channels are computed, so the result is
// exactly the dense network's. With dense weights everything is live and
// the program is the plain topology.
func (n *Network) compile() {
	r2 := n.spec.Scale * n.spec.Scale
	liveOut := []bool{true, true, true}
	liveHR := n.tail.liveInputs(liveOut)
	liveUp := make([]bool, len(liveHR)*r2)
	for c, l := range liveHR {
		for p := 0; l && p < r2; p++ {
			liveUp[c*r2+p] = true
		}
	}
	liveSkip := n.up.liveInputs(liveUp) // of bodyEnd(x) + h
	// liveX[i] is what is read of x entering block i; x leaving the body is
	// liveX[len(body)]. A channel live after a block is live before it (the
	// residual reads it), so liveX[0] holds every later set.
	liveX := make([][]bool, len(n.body)+1)
	liveMid := make([][]bool, len(n.body))
	liveX[len(n.body)] = n.bodyEnd.liveInputs(liveSkip)
	for i := len(n.body) - 1; i >= 0; i-- {
		b := n.body[i]
		liveMid[i] = b.conv2.liveInputs(liveX[i+1])
		liveX[i] = or(liveX[i+1], b.conv1.liveInputs(liveMid[i]))
	}
	liveFeat := or(liveX[0], liveSkip)

	p := &program{}
	feat, nFeat := compact(liveFeat)
	p.head = n.head.compile(liveFeat, feat, nFeat, identity(3), 3, epiStore)
	mids, nMid := make([][]int32, len(n.body)), 0
	for i, m := range liveMid { // one scratch tensor, as wide as the widest block, serves them all
		var c int
		mids[i], c = compact(m)
		nMid = max(nMid, c)
	}
	for i, b := range n.body {
		p.body = append(p.body, [2]*convPlan{
			b.conv1.compile(liveMid[i], mids[i], nMid, feat, nFeat, epiReLU),
			b.conv2.compile(liveX[i+1], feat, nFeat, mids[i], nMid, epiAdd),
		})
	}
	p.bodyEnd = n.bodyEnd.compile(liveSkip, feat, nFeat, feat, nFeat, epiAdd)
	upIdx, nUp := compact(liveUp)
	p.up = n.up.compile(liveUp, upIdx, nUp, feat, nFeat, epiStore)
	hr, nHR := compact(liveHR)
	p.tail = n.tail.compile(liveOut, identity(3), 3, hr, nHR, epiStore)
	n.prog = p
}

// or returns the union of two channel sets.
func or(a, b []bool) []bool {
	out := make([]bool, len(a))
	for i := range out {
		out[i] = a[i] || b[i]
	}
	return out
}

// ForwardInto runs the network on a 3×H×W input tensor in [0, 1], writing
// the 3×(H·scale)×(W·scale) result into out, with every intermediate tensor
// drawn from pool (nil allocates). The body updates its feature tensor in
// place through the fused epilogues, so the whole 16-block body runs in
// three scratch tensors.
func (n *Network) ForwardInto(out, in *Tensor, pool *bufpool.Pool) {
	n.once.Do(n.compile)
	p, s := n.prog, n.spec.Scale
	H, W := in.H, in.W
	checkShape("network output", out, 3, H*s, W*s)

	r := startRun(n.sched)
	h := GetTensor(pool, p.head.dstC, H, W)
	r.run(p.head, h, in)
	x := GetTensor(pool, h.C, H, W)
	copy(x.Data, h.Data)
	mid := GetTensor(pool, p.body[0][0].dstC, H, W) // every block's is as wide
	for _, b := range p.body {
		r.run(b[0], mid, x)
		r.run(b[1], x, mid)
	}
	PutTensor(pool, mid)
	r.run(p.bodyEnd, h, x) // global residual
	PutTensor(pool, x)

	u1 := GetTensor(pool, p.up.dstC, H, W)
	r.run(p.up, u1, h)
	PutTensor(pool, h)
	u2 := GetTensor(pool, p.tail.srcC, H*s, W*s)
	PixelShuffleInto(u2, u1, s)
	PutTensor(pool, u1)
	r.run(p.tail, out, u2)
	PutTensor(pool, u2)
	r.release()
}

// Forward is ForwardInto into a new tensor.
func (n *Network) Forward(in *Tensor) *Tensor {
	out := NewTensor(3, in.H*n.spec.Scale, in.W*n.spec.Scale)
	n.ForwardInto(out, in, nil)
	return out
}

// UpscaleInto implements Engine: the full EDSR inference with every tensor
// pooled.
func (n *Network) UpscaleInto(dst, im *frame.Image, scale int, pool *bufpool.Pool) error {
	if scale != n.spec.Scale {
		return fmt.Errorf("sr: network is ×%d, requested ×%d", n.spec.Scale, scale)
	}
	if im.W == 0 || im.H == 0 {
		return fmt.Errorf("sr: empty input image")
	}
	if dst.W != im.W*scale || dst.H != im.H*scale {
		return fmt.Errorf("sr: destination %dx%d != %dx scale-%d source", dst.W, dst.H, im.W, scale)
	}
	in := GetTensor(pool, 3, im.H, im.W)
	FromImageInto(in, im)
	out := GetTensor(pool, 3, im.H*scale, im.W*scale)
	n.ForwardInto(out, in, pool)
	PutTensor(pool, in)
	ToImageInto(dst, out)
	PutTensor(pool, out)
	return nil
}

// Upscale implements Engine: UpscaleInto into a new image.
func (n *Network) Upscale(im *frame.Image, scale int) (*frame.Image, error) {
	dst := frame.NewImage(im.W*scale, im.H*scale)
	if err := n.UpscaleInto(dst, im, scale, nil); err != nil {
		return nil, err
	}
	return dst, nil
}

// FLOPs returns the nominal multiply-accumulate count of one inference over
// an h×w input — every weight of the dense topology, zero or not. It is
// the quantity the device latency model consumes (the modelled clock bills
// the paper's EDSR, whatever this host's kernel skips); ExecutedMACs is
// what the wall clock pays for.
func (n *Network) FLOPs(h, w int) int64 {
	total := n.head.FLOPs(h, w)
	for i := range n.body {
		total += n.body[i].conv1.FLOPs(h, w) + n.body[i].conv2.FLOPs(h, w)
	}
	total += n.bodyEnd.FLOPs(h, w)
	total += n.up.FLOPs(h, w)
	s := n.spec.Scale
	total += n.tail.FLOPs(h*s, w*s)
	return total
}

// ExecutedMACs returns the multiply-accumulates the compiled program
// performs for an h×w input: non-zero weights of live output channels only.
// For dense weights it equals FLOPs; for the constructed weights it is
// about a thousandth of it.
func (n *Network) ExecutedMACs(h, w int) int64 {
	n.once.Do(n.compile)
	p := n.prog
	lr := p.head.macs() + p.bodyEnd.macs() + p.up.macs()
	for _, b := range p.body {
		lr += b[0].macs() + b[1].macs()
	}
	s := int64(n.spec.Scale)
	return lr*int64(h)*int64(w) + p.tail.macs()*int64(h)*s*int64(w)*s
}
