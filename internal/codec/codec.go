// Package codec implements the video codec substrate of the reproduction: a
// block-based GOP codec with intra-coded reference frames and inter-coded
// non-reference frames carrying per-macroblock motion vectors and quantized
// residuals.
//
// The paper's client uses an opaque hardware decoder (H.264/H.265), while
// the NEMO baseline needs a *modified software decoder* that exposes motion
// vectors and residuals so non-reference frames can be reconstructed from an
// upscaled reference (paper §II-A, §V-A). This codec plays both roles: the
// normal Decode path reconstructs pixels like any decoder would, and the
// decoded frame additionally surfaces its MV field and residual planes for
// the NEMO pipeline. Whether decoding is billed at hardware-decoder or
// CPU-software rates is the device model's concern, not the codec's.
//
// The design favours transparency over compression ratio: quantization +
// delta prediction + zero-run/varint entropy coding. Bitstream sizes are
// still content-dependent and monotone in quality, which is all the
// bandwidth experiments (§IV-B2) need.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gamestreamsr/internal/bufpool"
	"gamestreamsr/internal/frame"
	"gamestreamsr/internal/parallel"
)

// FrameType distinguishes reference (intra) from non-reference (inter)
// frames.
type FrameType uint8

const (
	// Intra frames are self-contained reference frames (keyframes).
	Intra FrameType = 1
	// Inter frames are predicted from the previous reconstructed frame via
	// motion compensation plus a residual.
	Inter FrameType = 2
)

func (t FrameType) String() string {
	switch t {
	case Intra:
		return "intra"
	case Inter:
		return "inter"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Config parameterises the codec.
type Config struct {
	// Width, Height of the coded stream.
	Width, Height int
	// GOPSize is the keyframe interval: frame i is intra iff i%GOPSize == 0.
	// The paper uses 60 (one reference + 59 non-reference frames, §V-B).
	GOPSize int
	// BlockSize is the macroblock edge in pixels (default 16).
	BlockSize int
	// SearchRange is the motion-search radius in pixels (default 12).
	SearchRange int
	// QStep is the quantization step for intra pixels and inter residuals
	// (default 6). Larger means smaller bitstreams and lower quality.
	QStep int
	// HalfPel enables half-pixel motion estimation and compensation
	// (production-codec behaviour). MVs are then coded in half-pel units,
	// halving the effective search radius the int8 coding can express.
	HalfPel bool
	// Deadzone zeroes inter residuals with magnitude ≤ Deadzone before
	// quantization, as production encoders do to spend no bits on noise.
	// Off by default: with the motion these game streams carry, a deadzone
	// lets reconstruction error accumulate inside a GOP even in the
	// closed LR loop. Exposed for the codec ablation benches.
	Deadzone int
}

func (c Config) withDefaults() Config {
	if c.GOPSize <= 0 {
		c.GOPSize = 60
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 16
	}
	if c.SearchRange <= 0 {
		c.SearchRange = 12
	}
	if c.SearchRange > 127 {
		c.SearchRange = 127 // MVs are coded as int8
	}
	if c.HalfPel && c.SearchRange > 63 {
		c.SearchRange = 63 // half-pel units halve the int8 span
	}
	if c.QStep <= 0 {
		c.QStep = 6
	}
	if c.Deadzone < 0 {
		c.Deadzone = 0
	}
	return c
}

// Bitstream bounds, enforced on both sides: parseHeader rejects a header
// past them before anything is allocated (a corrupt header must not be able
// to demand gigabytes), and Config.validate refuses to build an encoder whose
// every frame a decoder would reject.
const (
	maxDim       = 1 << 13 // either side, up to 8K
	maxPixels    = 1 << 23 // width × height, up to 4K frames
	maxBlockSize = 256
	maxQStep     = 255
)

// validate checks an effective (defaults applied) configuration against the
// bitstream bounds.
func (c Config) validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.Width > maxDim || c.Height > maxDim || c.Width*c.Height > maxPixels {
		return fmt.Errorf("codec: invalid dimensions %dx%d", c.Width, c.Height)
	}
	if c.BlockSize > maxBlockSize {
		return fmt.Errorf("codec: block size %d above %d", c.BlockSize, maxBlockSize)
	}
	if c.QStep > maxQStep {
		return fmt.Errorf("codec: quantizer %d above %d", c.QStep, maxQStep)
	}
	return nil
}

// MV is a motion vector in full pixels, pointing from the current block to
// its prediction in the previous reconstructed frame.
type MV struct {
	DX, DY int8
}

// SideInfo is what a NEMO-style modified decoder extracts from an inter
// frame: the motion-vector grid and the dequantized residual planes.
type SideInfo struct {
	// BlocksX, BlocksY give the MV grid dimensions.
	BlocksX, BlocksY int
	// BlockSize is the macroblock edge.
	BlockSize int
	// HalfPel marks MVs as being in half-pixel units.
	HalfPel bool
	// MVs is the row-major BlocksX×BlocksY motion-vector grid.
	MVs []MV
	// Residual holds the dequantized residual planes (R, G, B), full-frame,
	// row-major, in signed units.
	Residual [3][]int16
}

// DecodedFrame is the output of Decoder.Decode.
type DecodedFrame struct {
	Type  FrameType
	Image *frame.Image
	// Side is non-nil for inter frames.
	Side *SideInfo
}

// magic identifies GameStreamSR bitstream frames.
const magic = 0x47 // 'G'

const version = 2

// Encoder turns raw frames into bitstream frames. Frames must be fed in
// display order; the encoder tracks GOP position and reference state.
type Encoder struct {
	cfg   Config
	count int
	// prev is the previous *reconstructed* frame — predicting from the
	// reconstruction rather than the source keeps encoder and decoder in
	// lockstep and prevents drift.
	prev *frame.Image
	// pool recycles reconstruction images and quantized-value scratch
	// across frames; nil means plain allocation (see SetPool).
	pool *bufpool.Pool
	// mvs is the persistent motion-vector scratch of encodeInter.
	mvs []MV
	// sched is the scheduler client the row-parallel passes are attributed
	// to; nil means the default client (see SetSched).
	sched *parallel.Client
	// reference makes every frame take the clamped per-pixel loops, serially
	// — the form the row-slice loops are differentially tested against.
	reference bool
}

// NewEncoder creates an encoder for the given configuration.
func NewEncoder(cfg Config) (*Encoder, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg}, nil
}

// Config returns the encoder's effective configuration.
func (e *Encoder) Config() Config { return e.cfg }

// SetPool makes the encoder draw its per-frame reconstruction frames and
// quantization scratch from p (nil reverts to plain allocation). The pool
// must outlive the encoder's use of it.
func (e *Encoder) SetPool(p *bufpool.Pool) { e.pool = p }

// SetSched attributes the encoder's row-parallel passes (motion search,
// residual and reconstruction) to the scheduler client c, so a session's
// encode shares the worker pool by its weight and priority; nil reverts to
// the default client. The bitstream does not depend on it.
func (e *Encoder) SetSched(c *parallel.Client) { e.sched = c }

// Reset rewinds the encoder to the start of a stream.
func (e *Encoder) Reset() {
	e.count = 0
	if e.prev != nil {
		e.pool.PutImage(e.prev)
	}
	e.prev = nil
}

// Encode encodes the next frame at uniform quality and returns its
// bitstream and type.
func (e *Encoder) Encode(im *frame.Image) ([]byte, FrameType, error) {
	return e.encode(nil, im, nil)
}

// EncodeInto is Encode appending the bitstream to dst (which may be nil or
// a recycled buffer with spare capacity) instead of allocating a fresh one.
func (e *Encoder) EncodeInto(dst []byte, im *frame.Image) ([]byte, FrameType, error) {
	return e.encode(dst, im, nil)
}

// EncodeRoI encodes the next frame with RoI-aware quality: pixels inside
// roi are quantized with roiQ (typically finer than Config.QStep), the rest
// with Config.QStep. This is the server-side "spend bits where the player
// looks" optimisation of RoI-based encoding; the RoI rectangle and its
// quantizer travel in the frame header so any decoder reconstructs exactly.
func (e *Encoder) EncodeRoI(im *frame.Image, roi frame.Rect, roiQ int) ([]byte, FrameType, error) {
	return e.EncodeRoIInto(nil, im, roi, roiQ)
}

// EncodeRoIInto is EncodeRoI appending the bitstream to dst.
func (e *Encoder) EncodeRoIInto(dst []byte, im *frame.Image, roi frame.Rect, roiQ int) ([]byte, FrameType, error) {
	if roiQ <= 0 || roiQ > maxQStep {
		return nil, 0, fmt.Errorf("codec: invalid RoI quantizer %d", roiQ)
	}
	if !roi.In(e.cfg.Width, e.cfg.Height) || roi.Empty() {
		return nil, 0, fmt.Errorf("codec: RoI %v outside %dx%d stream", roi, e.cfg.Width, e.cfg.Height)
	}
	return e.encode(dst, im, &roiQuant{rect: roi, q: roiQ})
}

func (e *Encoder) encode(dst []byte, im *frame.Image, rq *roiQuant) ([]byte, FrameType, error) {
	if im.W != e.cfg.Width || im.H != e.cfg.Height {
		return nil, 0, fmt.Errorf("codec: frame is %dx%d, stream is %dx%d", im.W, im.H, e.cfg.Width, e.cfg.Height)
	}
	h := header{ftype: Inter, w: e.cfg.Width, h: e.cfg.Height, bs: e.cfg.BlockSize, q: e.cfg.QStep, halfPel: e.cfg.HalfPel}
	if e.count%e.cfg.GOPSize == 0 || e.prev == nil {
		h.ftype = Intra
	}
	if rq != nil {
		h.hasRoI, h.roi, h.roiQ = true, rq.rect, rq.q
	}
	e.count++
	dst = appendHeader(dst, h.ftype, e.cfg, rq)
	var data []byte
	var recon *frame.Image
	if h.ftype == Intra {
		data, recon = e.encodeIntra(dst, im.Compact(), h)
	} else {
		data, recon = e.encodeInter(dst, im.Compact(), h)
	}
	// The outgoing reference is dead once the new reconstruction exists;
	// recycling it here (not before: encodeInter reads it) lets one session
	// ping-pong two reconstruction buffers indefinitely.
	if e.prev != nil {
		e.pool.PutImage(e.prev)
	}
	e.prev = recon
	return data, h.ftype, nil
}

// Decoder reconstructs frames from bitstreams. Like the encoder it is
// stateful: inter frames reference the previously decoded frame.
type Decoder struct {
	prev *frame.Image
	// prevReleased records that the caller already handed the frame holding
	// prev back via Recycle; the image itself is recycled only when the next
	// Decode replaces it (it is still the inter reference until then).
	prevReleased bool
	// pool recycles decoded images, residual planes and RLE scratch; nil
	// means plain allocation (see SetPool).
	pool *bufpool.Pool
	// mvFree and sideFree recycle the MV grids and SideInfo headers of
	// released frames. The decoder is single-goroutine, so plain slices do.
	mvFree   [][]MV
	sideFree []*SideInfo
	// vals is the entropy decoder's output for one plane, kept across
	// frames: it never leaves the decoder, so it needs no pool round trip.
	vals []int32
	// reference makes every pixel take the clamped per-pixel loops, serially
	// — the form the row-slice loops are differentially tested against.
	reference bool
}

// NewDecoder creates a decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// SetPool makes the decoder draw decoded images and side-info buffers from
// p (nil reverts to plain allocation). Callers that set a pool should hand
// finished frames back with Recycle.
func (d *Decoder) SetPool(p *bufpool.Pool) { d.pool = p }

// Reset clears reference state (e.g. on seek or stream restart).
func (d *Decoder) Reset() {
	if d.prev != nil && d.prevReleased {
		d.pool.PutImage(d.prev)
	}
	d.prev = nil
	d.prevReleased = false
}

// Recycle hands a decoded frame's buffers back to the decoder's pool. The
// caller must be done with every alias into the frame (image planes,
// residual slices, MV grid). The current reference image is retired only
// after the next Decode stops predicting from it; everything else is
// reusable immediately. Safe to call with a nil pool or frame (no-op).
func (d *Decoder) Recycle(df *DecodedFrame) {
	if d == nil || df == nil {
		return
	}
	if side := df.Side; side != nil {
		df.Side = nil
		for p := range side.Residual {
			if d.pool != nil {
				d.pool.PutInt16s(side.Residual[p])
			}
			side.Residual[p] = nil
		}
		if side.MVs != nil && len(d.mvFree) < 8 {
			d.mvFree = append(d.mvFree, side.MVs)
		}
		side.MVs = nil
		if len(d.sideFree) < 8 {
			*side = SideInfo{}
			d.sideFree = append(d.sideFree, side)
		}
	}
	im := df.Image
	df.Image = nil
	if im == nil {
		return
	}
	if im == d.prev {
		d.prevReleased = true
		return
	}
	d.pool.PutImage(im)
}

// ErrCorrupt is wrapped by all bitstream parsing failures.
var ErrCorrupt = errors.New("codec: corrupt bitstream")

// Decode parses one bitstream frame and returns its reconstruction. For
// inter frames the result includes the NEMO side information.
func (d *Decoder) Decode(data []byte) (*DecodedFrame, error) {
	hdr, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	switch hdr.ftype {
	case Intra:
		im, err := d.decodeIntra(hdr, rest)
		if err != nil {
			return nil, err
		}
		d.retire(im)
		return &DecodedFrame{Type: Intra, Image: im}, nil
	case Inter:
		if d.prev == nil {
			return nil, fmt.Errorf("%w: inter frame without reference", ErrCorrupt)
		}
		if d.prev.W != hdr.w || d.prev.H != hdr.h {
			return nil, fmt.Errorf("%w: inter frame %dx%d but reference is %dx%d", ErrCorrupt, hdr.w, hdr.h, d.prev.W, d.prev.H)
		}
		im, side, err := d.decodeInter(hdr, rest, d.prev)
		if err != nil {
			return nil, err
		}
		d.retire(im)
		return &DecodedFrame{Type: Inter, Image: im, Side: side}, nil
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, hdr.ftype)
	}
}

// retire installs im as the new inter reference, recycling the outgoing
// one if its frame was already released.
func (d *Decoder) retire(im *frame.Image) {
	if d.prev != nil && d.prevReleased {
		d.pool.PutImage(d.prev)
	}
	d.prev = im
	d.prevReleased = false
}

// getMVs returns a recycled or fresh MV grid of length n.
func (d *Decoder) getMVs(n int) []MV {
	for i := len(d.mvFree) - 1; i >= 0; i-- {
		if cap(d.mvFree[i]) >= n {
			mvs := d.mvFree[i][:n]
			d.mvFree[i] = d.mvFree[len(d.mvFree)-1]
			d.mvFree = d.mvFree[:len(d.mvFree)-1]
			return mvs
		}
	}
	return make([]MV, n)
}

// getSide returns a recycled or fresh zeroed SideInfo header.
func (d *Decoder) getSide() *SideInfo {
	if k := len(d.sideFree); k > 0 {
		s := d.sideFree[k-1]
		d.sideFree = d.sideFree[:k-1]
		return s
	}
	return &SideInfo{}
}

type header struct {
	ftype FrameType
	w, h  int
	bs    int
	q     int
	// RoI-aware quality: pixels inside roi are quantized with roiQ
	// instead of q. hasRoI is false for uniform-quality frames.
	hasRoI bool
	roi    frame.Rect
	roiQ   int
	// halfPel marks MVs as being in half-pixel units.
	halfPel bool
}

// qAt returns the quantizer for pixel (x, y).
func (h header) qAt(x, y int) int32 {
	if h.hasRoI && h.roi.Contains(x, y) {
		return int32(h.roiQ)
	}
	return int32(h.q)
}

// roiSpan hoists qAt out of a row's inner loop: of the w pixels of row y
// starting at column x, those at offsets [a, b) take the RoI quantizer and
// the rest the base one (a == b when the row misses the RoI). a <= b
// because parseHeader only admits an RoI that lies inside the frame.
func (h header) roiSpan(x, w, y int) (a, b int) {
	if !h.hasRoI || y < h.roi.Y || y >= h.roi.Y+h.roi.H {
		return 0, 0
	}
	return clampInt(h.roi.X-x, 0, w), clampInt(h.roi.X+h.roi.W-x, 0, w)
}

func appendHeader(buf []byte, t FrameType, cfg Config, roi *roiQuant) []byte {
	buf = append(buf, magic, version, byte(t))
	buf = binary.AppendUvarint(buf, uint64(cfg.Width))
	buf = binary.AppendUvarint(buf, uint64(cfg.Height))
	buf = binary.AppendUvarint(buf, uint64(cfg.BlockSize))
	buf = binary.AppendUvarint(buf, uint64(cfg.QStep))
	if roi == nil {
		buf = binary.AppendUvarint(buf, 0)
	} else {
		buf = binary.AppendUvarint(buf, 1)
		for _, v := range []int{roi.rect.X, roi.rect.Y, roi.rect.W, roi.rect.H, roi.q} {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	hp := uint64(0)
	if cfg.HalfPel {
		hp = 1
	}
	buf = binary.AppendUvarint(buf, hp)
	return buf
}

// roiQuant carries the per-frame RoI quality override on the encode side.
type roiQuant struct {
	rect frame.Rect
	q    int
}

func parseHeader(data []byte) (header, []byte, error) {
	if len(data) < 3 {
		return header{}, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if data[0] != magic {
		return header{}, nil, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, data[0])
	}
	if data[1] != version {
		return header{}, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[1])
	}
	h := header{ftype: FrameType(data[2])}
	rest := data[3:]
	fields := []*int{&h.w, &h.h, &h.bs, &h.q}
	for _, f := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return header{}, nil, fmt.Errorf("%w: truncated header varint", ErrCorrupt)
		}
		rest = rest[n:]
		*f = int(v)
	}
	roiFlag, n := binary.Uvarint(rest)
	if n <= 0 {
		return header{}, nil, fmt.Errorf("%w: truncated RoI flag", ErrCorrupt)
	}
	rest = rest[n:]
	switch roiFlag {
	case 0:
	case 1:
		h.hasRoI = true
		fields := []*int{&h.roi.X, &h.roi.Y, &h.roi.W, &h.roi.H, &h.roiQ}
		for _, f := range fields {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return header{}, nil, fmt.Errorf("%w: truncated RoI header", ErrCorrupt)
			}
			rest = rest[n:]
			*f = int(v)
		}
	default:
		return header{}, nil, fmt.Errorf("%w: unknown RoI flag %d", ErrCorrupt, roiFlag)
	}
	hpFlag, n := binary.Uvarint(rest)
	if n <= 0 {
		return header{}, nil, fmt.Errorf("%w: truncated half-pel flag", ErrCorrupt)
	}
	rest = rest[n:]
	switch hpFlag {
	case 0:
	case 1:
		h.halfPel = true
	default:
		return header{}, nil, fmt.Errorf("%w: unknown half-pel flag %d", ErrCorrupt, hpFlag)
	}
	// Bound each dimension and the total pixel count (up to 4K frames)
	// before any allocation happens — corrupt headers must not be able to
	// demand gigabytes.
	if h.w <= 0 || h.h <= 0 || h.w > maxDim || h.h > maxDim || h.w*h.h > maxPixels {
		return header{}, nil, fmt.Errorf("%w: unreasonable dimensions %dx%d", ErrCorrupt, h.w, h.h)
	}
	if h.bs <= 0 || h.bs > maxBlockSize {
		return header{}, nil, fmt.Errorf("%w: unreasonable block size %d", ErrCorrupt, h.bs)
	}
	if h.q <= 0 || h.q > maxQStep {
		return header{}, nil, fmt.Errorf("%w: unreasonable quantizer %d", ErrCorrupt, h.q)
	}
	if h.hasRoI {
		if h.roiQ <= 0 || h.roiQ > maxQStep {
			return header{}, nil, fmt.Errorf("%w: unreasonable RoI quantizer %d", ErrCorrupt, h.roiQ)
		}
		if !h.roi.In(h.w, h.h) || h.roi.Empty() {
			return header{}, nil, fmt.Errorf("%w: RoI %v outside %dx%d frame", ErrCorrupt, h.roi, h.w, h.h)
		}
	}
	return h, rest, nil
}

// planeVals returns the decoder's persistent n-value entropy scratch.
func (d *Decoder) planeVals(n int) []int32 {
	if cap(d.vals) < n {
		d.vals = make([]int32, n)
	}
	return d.vals[:n]
}

func (d *Decoder) decodeIntra(h header, data []byte) (*frame.Image, error) {
	im := d.pool.Image(h.w, h.h)
	vals := d.planeVals(h.w * h.h)
	for p := 0; p < 3; p++ {
		rest, err := decodeSignedRLEInto(vals, data)
		if err != nil {
			d.pool.PutImage(im)
			return nil, err
		}
		data = rest
		rp := reconPlane(im, p)
		acc := int32(0)
		if d.reference {
			for i, dv := range vals {
				acc += dv
				rp[i] = clamp8(acc * h.qAt(i%h.w, i/h.w))
			}
			continue
		}
		for y := 0; y < h.h; y++ {
			row := y * h.w
			a, b := h.roiSpan(0, h.w, y)
			acc = intraSpan(rp[row:row+a], vals[row:row+a], acc, int32(h.q))
			acc = intraSpan(rp[row+a:row+b], vals[row+a:row+b], acc, int32(h.roiQ))
			acc = intraSpan(rp[row+b:row+h.w], vals[row+b:row+h.w], acc, int32(h.q))
		}
	}
	return im, nil
}

// intraSpan undoes the delta prediction over one constant-quantizer span,
// returning the running level for the next span.
func intraSpan(rp []uint8, vals []int32, acc, q int32) int32 {
	vals = vals[:len(rp)]
	for i, dv := range vals {
		acc += dv
		rp[i] = clamp8(acc * q)
	}
	return acc
}

func (d *Decoder) decodeInter(h header, data []byte, ref *frame.Image) (*frame.Image, *SideInfo, error) {
	bs := h.bs
	bw := (h.w + bs - 1) / bs
	bh := (h.h + bs - 1) / bs
	side := d.getSide()
	*side = SideInfo{BlocksX: bw, BlocksY: bh, BlockSize: bs, HalfPel: h.halfPel, MVs: d.getMVs(bw * bh)}
	for i := range side.MVs {
		dx, n := binary.Varint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated MV grid", ErrCorrupt)
		}
		data = data[n:]
		dy, n := binary.Varint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: truncated MV grid", ErrCorrupt)
		}
		data = data[n:]
		if dx < -128 || dx > 127 || dy < -128 || dy > 127 {
			return nil, nil, fmt.Errorf("%w: MV out of range (%d,%d)", ErrCorrupt, dx, dy)
		}
		side.MVs[i] = MV{DX: int8(dx), DY: int8(dy)}
	}
	im := d.pool.Image(h.w, h.h)
	n := h.w * h.h
	ref = ref.Compact()
	pl := interPlane{h: h, bw: bw, mvs: side.MVs, vals: d.planeVals(n)}
	for p := 0; p < 3; p++ {
		// Entropy decoding is serial by nature; reconstruction is not.
		rest, err := decodeSignedRLEInto(pl.vals, data)
		if err != nil {
			d.pool.PutImage(im)
			for q := 0; q < p; q++ {
				d.pool.PutInt16s(side.Residual[q])
				side.Residual[q] = nil
			}
			return nil, nil, err
		}
		data = rest
		// The block grid covers every pixel, so the dirty pooled planes
		// below are fully overwritten.
		pl.rp, pl.refp, pl.res = reconPlane(im, p), srcPlane(ref, p), d.pool.Int16s(n)
		side.Residual[p] = pl.res
		if d.reference {
			for by := 0; by < bh; by++ {
				pl.blockRow(by, true)
			}
			continue
		}
		// Block rows write disjoint pixel rows of im and the residual plane
		// and only read ref and vals, so they parallelise freely.
		parallel.For(bh, func(lo, hi int) {
			for by := lo; by < hi; by++ {
				pl.blockRow(by, false)
			}
		})
	}
	return im, side, nil
}

// interPlane is one colour plane of an inter frame under reconstruction:
// the motion-compensated prediction from refp plus the dequantized residual
// vals·q gives the pixels rp; the clamped residual is kept in res as NEMO
// side information. All planes are packed, width h.w.
type interPlane struct {
	h        header
	bw       int
	mvs      []MV
	rp, refp []uint8
	res      []int16
	vals     []int32
}

// blockRow reconstructs the blocks of block row by. A block whose displaced
// footprint lies inside the frame (integer-pel only) needs no coordinate
// clamp, so it runs row slice by row slice with the quantizer hoisted per
// span; border blocks, half-pel streams and vectors pointing off the frame
// — and, with clampedOnly, everything — keep the clamped per-pixel loop.
// Both produce the same bytes.
func (pl *interPlane) blockRow(by int, clampedOnly bool) {
	h := pl.h
	y := by * h.bs
	hh := min(h.bs, h.h-y)
	for bx := 0; bx < pl.bw; bx++ {
		mv := pl.mvs[by*pl.bw+bx]
		x := bx * h.bs
		w := min(h.bs, h.w-x)
		dx, dy := int(mv.DX), int(mv.DY)
		if clampedOnly || h.halfPel || x+dx < 0 || x+w+dx > h.w || y+dy < 0 || y+hh+dy > h.h {
			pl.blockClamped(x, y, w, hh, mv)
			continue
		}
		for sy := y; sy < y+hh; sy++ {
			o := sy*h.w + x
			r := (sy+dy)*h.w + x + dx
			a, b := h.roiSpan(x, w, sy)
			pl.span(o, r, a, int32(h.q))
			pl.span(o+a, r+a, b-a, int32(h.roiQ))
			pl.span(o+b, r+b, w-b, int32(h.q))
		}
	}
}

// span reconstructs n pixels from offset o, predicted from reference offset
// r, at the constant quantizer q.
func (pl *interPlane) span(o, r, n int, q int32) {
	rp, res, vals, ref := pl.rp[o:o+n], pl.res[o:o+n], pl.vals[o:o+n], pl.refp[r:r+n]
	for i := range rp {
		d := vals[i] * q
		res[i] = int16(clampRes(d))
		rp[i] = clamp8(int32(ref[i]) + d)
	}
}

// blockClamped is the general per-pixel loop: every reference coordinate is
// clamped to the frame (or half-pel interpolated) and the quantizer looked
// up per pixel.
func (pl *interPlane) blockClamped(x, y, w, hh int, mv MV) {
	h := pl.h
	for j := 0; j < hh; j++ {
		sy := y + j
		ry := clampInt(sy+int(mv.DY), 0, h.h-1)
		for i := 0; i < w; i++ {
			sx := x + i
			rx := clampInt(sx+int(mv.DX), 0, h.w-1)
			var pred int32
			if h.halfPel {
				pred = predHalfPel(pl.refp, h.w, h.h, sx, sy, int(mv.DX), int(mv.DY))
			} else {
				pred = int32(pl.refp[ry*h.w+rx])
			}
			res := pl.vals[sy*h.w+sx] * h.qAt(sx, sy)
			pl.res[sy*h.w+sx] = int16(clampRes(res))
			pl.rp[sy*h.w+sx] = clamp8(pred + res)
		}
	}
}

// --- entropy coding: zero-run + zigzag varints -------------------------------

// appendSignedRLE encodes a signed int32 sequence: each zero run becomes the
// marker byte 0x00 followed by a uvarint run length; every non-zero value is
// encoded as a varint of the value itself (whose first byte can never be
// 0x00 for non-zero values, so the marker is unambiguous).
func appendSignedRLE(buf []byte, vals []int32) []byte {
	i := 0
	for i < len(vals) {
		if vals[i] == 0 {
			run := 0
			for i < len(vals) && vals[i] == 0 {
				run++
				i++
			}
			buf = append(buf, 0x00)
			buf = binary.AppendUvarint(buf, uint64(run))
			continue
		}
		buf = binary.AppendVarint(buf, int64(vals[i]))
		i++
	}
	return buf
}

// decodeSignedRLE decodes exactly n values and returns the remaining bytes.
func decodeSignedRLE(data []byte, n int) ([]int32, []byte, error) {
	out := make([]int32, n)
	rest, err := decodeSignedRLEInto(out, data)
	if err != nil {
		return nil, nil, err
	}
	return out, rest, nil
}

// decodeSignedRLEInto decodes exactly len(out) values into out and returns
// the remaining bytes. out is cleared first — zero runs are encoded by
// skipping over already-zero elements — so a dirty pooled buffer is fine.
func decodeSignedRLEInto(out []int32, data []byte) ([]byte, error) {
	clear(out)
	n := len(out)
	i := 0
	for i < n {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: truncated plane data", ErrCorrupt)
		}
		b := data[0]
		if b == 0x00 {
			// Runs under 128 — a one-byte uvarint — are decoded in place.
			run, m := uint64(0), 0
			if len(data) > 1 && data[1] < 0x80 {
				run, m = uint64(data[1]), 1
			} else if run, m = binary.Uvarint(data[1:]); m <= 0 {
				return nil, fmt.Errorf("%w: truncated zero run", ErrCorrupt)
			}
			data = data[1+m:]
			if run == 0 || run > uint64(n-i) {
				return nil, fmt.Errorf("%w: zero run %d overflows plane", ErrCorrupt, run)
			}
			i += int(run) // out already zeroed
			continue
		}
		if b < 0x80 {
			// A one-byte varint (|v| < 64, nearly every residual): undo the
			// zigzag directly.
			out[i] = int32(b>>1) ^ -int32(b&1)
			data = data[1:]
			i++
			continue
		}
		v, m := binary.Varint(data)
		if m <= 0 {
			return nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		if v < -1<<30 || v > 1<<30 {
			return nil, fmt.Errorf("%w: value out of range", ErrCorrupt)
		}
		data = data[m:]
		out[i] = int32(v)
		i++
	}
	return data, nil
}

// --- small helpers ------------------------------------------------------------

func srcPlane(im *frame.Image, p int) []uint8 {
	switch p {
	case 0:
		return im.R
	case 1:
		return im.G
	default:
		return im.B
	}
}

func reconPlane(im *frame.Image, p int) []uint8 { return srcPlane(im, p) }

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

func clampRes(v int32) int32 {
	if v < -32768 {
		return -32768
	}
	if v > 32767 {
		return 32767
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
