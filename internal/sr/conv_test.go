package sr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/parallel"
	"gamestreamsr/internal/upscale"
)

// almostEqual is shared across the package's tests.
func almostEqual(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

// referenceConv is the direct convolution the compiled kernel replaced,
// kept as the specification (the Decoder.reference pattern): per output
// element, bias, then w·src in ascending (ic, ky, kx) with zero weights
// skipped and both coordinates clamped per pixel.
func referenceConv(c *Conv2D, in *Tensor) *Tensor {
	out := NewTensor(c.OutC, in.H, in.W)
	half := c.K / 2
	H, W := in.H, in.W
	for oc := 0; oc < c.OutC; oc++ {
		op := out.Plane(oc)
		for i := range op {
			op[i] = c.Bias[oc]
		}
		for ic := 0; ic < c.InC; ic++ {
			ip := in.Plane(ic)
			for ky := 0; ky < c.K; ky++ {
				for kx := 0; kx < c.K; kx++ {
					w := c.Weight[c.WIndex(oc, ic, ky, kx)]
					if w == 0 {
						continue
					}
					for y := 0; y < H; y++ {
						srow := clampIdx(y+ky-half, H) * W
						for x := 0; x < W; x++ {
							op[y*W+x] += float32(w * ip[srow+clampIdx(x+kx-half, W)])
						}
					}
				}
			}
		}
	}
	return out
}

// referenceNetwork is the EDSR topology spelled out over dense tensors with
// the reference convolution and the standalone ReLU/AddInto/PixelShuffleInto.
func referenceNetwork(n *Network, in *Tensor) *Tensor {
	h := referenceConv(n.head, in)
	x := h
	for _, b := range n.body {
		r := referenceConv(b.conv2, ReLU(referenceConv(b.conv1, x)))
		AddInto(r, x, r)
		x = r
	}
	x = referenceConv(n.bodyEnd, x)
	AddInto(x, x, h)
	u, s := referenceConv(n.up, x), n.spec.Scale
	x = NewTensor(u.C/(s*s), u.H*s, u.W*s)
	PixelShuffleInto(x, u, s)
	return referenceConv(n.tail, x)
}

// fillConv gives c random weights, each kept with probability density, and
// random biases.
func fillConv(rng *rand.Rand, c *Conv2D, density float64) {
	for i := range c.Weight {
		if rng.Float64() < density {
			c.Weight[i] = rng.Float32()*2 - 1
		}
	}
	for i := range c.Bias {
		c.Bias[i] = rng.Float32()
	}
}

func randomTensor(rng *rand.Rand, c, h, w int) *Tensor {
	t := NewTensor(c, h, w)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// randomConvAndInput builds a dense random conv layer and matching input.
func randomConvAndInput(seed int64, inC, outC, k, h, w int) (*Conv2D, *Tensor) {
	rng := rand.New(rand.NewSource(seed))
	c := NewConv2D(inC, outC, k)
	fillConv(rng, c, 1)
	return c, randomTensor(rng, inC, h, w)
}

// sameBits reports the first element at which two tensors differ in shape
// or in any bit.
func sameBits(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if got.C != want.C || got.H != want.H || got.W != want.W {
		t.Fatalf("%s: shape %dx%dx%d, want %dx%dx%d", what, got.C, got.H, got.W, want.C, want.H, want.W)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestConvMatchesReference is the kernel's contract: over random sparse and
// dense weights, K in {1,3,5}, shapes down to 1×1 with W < K and H < K,
// a random set of computed output channels compacted into the destination,
// and each epilogue, the compiled plan produces the reference's bits —
// against ReLU and AddInto applied to the reference's output.
func TestConvMatchesReference(t *testing.T) {
	const sentinel = -12345
	f := func(seed int64, inCs, outCs, ks, hs, ws, ds uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		inC, outC := int(inCs)%5+1, int(outCs)%5+1
		k := []int{1, 3, 5}[int(ks)%3]
		h, w := int(hs)%13+1, int(ws)%13+1
		c := NewConv2D(inC, outC, k)
		fillConv(rng, c, []float64{1, 0.5, 0.1}[int(ds)%3])
		in := randomTensor(rng, inC, h, w)
		want := referenceConv(c, in)

		live := make([]bool, outC)
		for i := range live {
			live[i] = rng.Intn(3) > 0
		}
		dstIdx, dstC := compact(live)
		dstC++ // a plane no output owns: must stay untouched
		for _, epi := range []epilogue{epiStore, epiReLU, epiAdd} {
			exp := NewTensor(outC, h, w)
			copy(exp.Data, want.Data)
			prior := randomTensor(rng, dstC, h, w)
			got := NewTensor(dstC, h, w)
			copy(got.Data, prior.Data)
			for i := range got.Plane(dstC - 1) {
				got.Plane(dstC - 1)[i] = sentinel
			}
			if epi == epiReLU {
				ReLU(exp)
			}
			r := startRun(nil)
			r.run(c.compile(live, dstIdx, dstC, identity(inC), inC, epi), got, in)
			r.release()
			for oc := 0; oc < outC; oc++ {
				if !live[oc] {
					continue
				}
				e := &Tensor{C: 1, H: h, W: w, Data: exp.Plane(oc)}
				g := &Tensor{C: 1, H: h, W: w, Data: got.Plane(int(dstIdx[oc]))}
				if epi == epiAdd {
					p := &Tensor{C: 1, H: h, W: w, Data: prior.Plane(int(dstIdx[oc]))}
					AddInto(p, p, e)
					e = p
				}
				for i := range e.Data {
					if math.Float32bits(g.Data[i]) != math.Float32bits(e.Data[i]) {
						t.Logf("seed %d %d->%d k%d %dx%d epi %d: oc %d element %d = %v, want %v", seed, inC, outC, k, h, w, epi, oc, i, g.Data[i], e.Data[i])
						return false
					}
				}
			}
			for _, v := range got.Plane(dstC - 1) {
				if v != sentinel {
					t.Logf("seed %d: epi %d wrote a plane it does not own", seed, epi)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConvTinyImages pins the shapes where replicate padding is all there
// is: images smaller than the kernel, and a single pixel.
func TestConvTinyImages(t *testing.T) {
	for _, s := range []struct{ inC, outC, k, h, w int }{
		{2, 2, 5, 2, 3}, {1, 1, 3, 1, 1}, {3, 2, 5, 1, 7}, {2, 3, 3, 6, 1}, {2, 2, 5, 4, 4},
	} {
		c, in := randomConvAndInput(3, s.inC, s.outC, s.k, s.h, s.w)
		sameBits(t, "tiny conv", c.Forward(in), referenceConv(c, in))
	}
}

// TestConvIntoVariantsMatch cross-checks Forward and ForwardInto (into a
// dirty pooled tensor) against the reference on dense and sparse weights.
func TestConvIntoVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, density := range []float64{1.0, 0.1} {
		conv := NewConv2D(4, 6, 3)
		fillConv(rng, conv, density)
		in := randomTensor(rng, 4, 9, 11)
		want := referenceConv(conv, in)
		sameBits(t, "Forward", conv.Forward(in), want)
		pool := bufpool.New()
		out := GetTensor(pool, 6, 9, 11)
		for i := range out.Data {
			out.Data[i] = -1e30
		}
		conv.ForwardInto(out, in)
		sameBits(t, "ForwardInto", out, want)
		PutTensor(pool, out)
	}
}

// TestWeightsFrozenAtFirstUse holds the contract on the exported Weight and
// Bias slices: what is filled after construction and before the first
// forward is what the layer (and the network) computes with, and writes after
// the first use are not seen.
func TestWeightsFrozenAtFirstUse(t *testing.T) {
	c := NewConv2D(1, 1, 3)
	c.Weight[c.WIndex(0, 0, 1, 2)] = 2
	c.Bias[0] = 1
	in := NewTensor(1, 1, 3)
	copy(in.Data, []float32{1, 2, 3})
	want := []float32{5, 7, 7}
	for i, v := range c.Forward(in).Data {
		if v != want[i] {
			t.Fatalf("filled conv element %d = %v, want %v", i, v, want[i])
		}
	}
	c.Bias[0] = 100
	if got := c.Forward(in).Data[0]; got != want[0] {
		t.Errorf("bias written after first use changed the output: %v", got)
	}

	n := NewNetwork(Spec{Blocks: 1, Channels: 4})
	rng := rand.New(rand.NewSource(1))
	for _, l := range []*Conv2D{n.head, n.body[0].conv1, n.body[0].conv2, n.bodyEnd, n.up, n.tail} {
		fillConv(rng, l, 0.6)
	}
	x := randomTensor(rng, 3, 5, 6)
	sameBits(t, "filled network", n.Forward(x), referenceNetwork(n, x))
}

// TestNetworkMatchesReference compares whole inferences bit for bit: the
// constructed default network (3 live channels of 64), dense random
// networks, and sparse random ones whose live sets differ from block to
// block, at the issue's shapes.
func TestNetworkMatchesReference(t *testing.T) {
	sparse := NewNetwork(Spec{Blocks: 3, Channels: 6})
	rng := rand.New(rand.NewSource(5))
	fillConv(rng, sparse.head, 0.3)
	for _, b := range sparse.body {
		fillConv(rng, b.conv1, 0.08)
		fillConv(rng, b.conv2, 0.08)
	}
	fillConv(rng, sparse.bodyEnd, 0.1)
	fillConv(rng, sparse.up, 0.02)
	fillConv(rng, sparse.tail, 0.1)

	shapes := [][2]int{{81, 81}, {1, 1}, {2, 5}, {37, 3}}
	pool := bufpool.New()
	for _, tc := range []struct {
		name   string
		net    *Network
		shapes [][2]int
	}{
		{"interp default", NewInterpEDSR(Spec{}, InterpConfig{}), shapes},
		{"interp lanczos", NewInterpEDSR(Spec{Blocks: 2, Channels: 5, UpK: 7}, InterpConfig{Kernel: upscale.Lanczos3}), shapes[1:]},
		{"random 2x8", NewRandomEDSR(Spec{Blocks: 2, Channels: 8}, 3), shapes},
		{"random default", NewRandomEDSR(Spec{}, 4), shapes[1:3]},
		{"random x3", NewRandomEDSR(Spec{Blocks: 1, Channels: 4, Scale: 3}, 6), shapes[1:]},
		{"sparse", sparse, shapes},
	} {
		for _, s := range tc.shapes {
			in := randomTensor(rng, 3, s[1], s[0])
			for i := range in.Data {
				in.Data[i] = (in.Data[i] + 1) / 2
			}
			want := referenceNetwork(tc.net, in)
			// Twice through one pool: the second inference draws recycled
			// tensors — NaN-filled under -race or -tags bufpool_debug — so
			// reading a plane no layer wrote cannot go unnoticed.
			for run := 0; run < 2; run++ {
				out := GetTensor(pool, want.C, want.H, want.W)
				tc.net.ForwardInto(out, in, pool)
				sameBits(t, tc.name, out, want)
				PutTensor(pool, out)
			}
		}
	}
}

// TestLivenessAndExecutedMACs checks what the backward pass keeps: three
// feature channels of the constructed network, everything of a dense one,
// and one placeholder channel of an all-zero one.
func TestLivenessAndExecutedMACs(t *testing.T) {
	n := NewInterpEDSR(Spec{}, InterpConfig{})
	got := n.ExecutedMACs(10, 10)
	// head 3, 16 blocks × 3·(9+1), bodyEnd 3, up 12·16 (a bicubic phase has
	// 4 non-zero taps of the 5) at LR; tail 3·9 at HR.
	if want := int64(3+16*30+3+12*16)*100 + 27*400; got != want {
		t.Errorf("constructed ExecutedMACs = %d, want %d", got, want)
	}
	if p := n.prog; p.head.dstC != 3 || p.body[0][0].dstC != 3 || p.up.dstC != 12 || p.tail.srcC != 3 {
		t.Errorf("constructed planes feat %d mid %d up %d hr %d, want 3 3 12 3", p.head.dstC, p.body[0][0].dstC, p.up.dstC, p.tail.srcC)
	}
	if nominal := n.FLOPs(10, 10); nominal < 500*got {
		t.Errorf("nominal %d MACs against %d executed: the constructed network should skip almost all", nominal, got)
	}
	d := NewRandomEDSR(Spec{Blocks: 2, Channels: 8}, 1)
	if d.ExecutedMACs(7, 9) != d.FLOPs(7, 9) {
		t.Errorf("dense ExecutedMACs = %d, FLOPs = %d", d.ExecutedMACs(7, 9), d.FLOPs(7, 9))
	}
	z := NewNetwork(Spec{Blocks: 1, Channels: 4})
	z.tail.Bias[1] = 0.5
	out := z.Forward(NewTensor(3, 2, 2))
	if z.ExecutedMACs(2, 2) != 0 || out.At(1, 3, 3) != 0.5 || out.At(0, 0, 0) != 0 {
		t.Errorf("all-zero network: %d MACs, out %v", z.ExecutedMACs(2, 2), out.Data)
	}
}

// TestNetworkSetSched checks that one SetSched attributes every layer of the
// network to the given client, and that the bits do not depend on it.
func TestNetworkSetSched(t *testing.T) {
	sched := parallel.NewScheduler(2)
	defer sched.Close()
	c := sched.NewClient(parallel.ClientConfig{Name: "session"})
	n := NewRandomEDSR(Spec{Blocks: 2, Channels: 8}, 2)
	n.SetSched(c)
	in := randomTensor(rand.New(rand.NewSource(9)), 3, 12, 10)
	sameBits(t, "under a client", n.Forward(in), referenceNetwork(n, in))
	if jobs := c.Stats().Jobs; jobs != 1+2*2+1+1+1 {
		t.Errorf("client ran %d jobs, want one per layer (8)", jobs)
	}
}

// The dense 16→16 3×3 layer on a 48×48 tile that BenchmarkConvGEMMDense
// measured before the one kernel.
func BenchmarkConvDense(b *testing.B) {
	c, in := randomConvAndInput(7, 16, 16, 3, 48, 48)
	out := NewTensor(16, 48, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardInto(out, in)
	}
}
