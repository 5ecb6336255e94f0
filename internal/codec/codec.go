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
// decoded frame additionally surfaces its MV field and, on request, its
// residual planes (SideInfo.ResidualInto) for the NEMO pipeline. Whether
// decoding is billed at hardware-decoder or CPU-software rates is the device
// model's concern, not the codec's.
//
// The design favours transparency over compression ratio: quantization +
// delta prediction + significance words (sig.go). Bitstream sizes are
// still content-dependent and monotone in quality, which is all the
// bandwidth experiments (§IV-B2) need.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

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
	if c.QStep <= 0 {
		c.QStep = 6
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
// frame: the motion-vector grid and the residual. The residual stays in the
// form the bitstream holds it (DESIGN.md §28) — one significance sequence per
// block row and plane, aliasing the payload passed to Decode — and
// ResidualInto reads a dense plane out of it, so a decode whose residual
// nobody reads writes none. A decoded SideInfo is valid until its frame is
// handed to Recycle; the payload must not be reused or modified before then.
// A SideInfo built by hand carries no residual: every plane reads as zero.
type SideInfo struct {
	// BlocksX, BlocksY give the MV grid dimensions.
	BlocksX, BlocksY int
	// BlockSize is the macroblock edge.
	BlockSize int
	// W, H are the frame's geometry, and so each residual plane's.
	W, H int
	// MVs is the row-major BlocksX×BlocksY motion-vector grid.
	MVs []MV
	// q is the frame's quantizer and bands[by][p] the levels of plane p over
	// block row by.
	q     int32
	bands [][3]sigSeq
}

// ResidualInto writes residual plane p (R, G, B for 0, 1, 2) into dst,
// row-major W×H, overwriting all of it: 0 where the coded level is 0,
// elsewhere the level times the quantizer clamped to the int16 range — the
// value the decoder added onto the prediction before clamping the pixel.
// dst must hold exactly W·H samples.
func (s *SideInfo) ResidualInto(p int, dst []float64) {
	if len(dst) != s.W*s.H {
		panic(fmt.Sprintf("codec: residual destination of %d samples for a %dx%d frame", len(dst), s.W, s.H))
	}
	clear(dst)
	for by := range s.bands {
		y := by * s.BlockSize
		band := y * s.W
		residualInto(dst[band:band+min(s.BlockSize, s.H-y)*s.W], s.q, &s.bands[by][p])
	}
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

// version is the one bitstream format this package writes and reads
// (DESIGN.md §21, §28):
//
//	frame  = header · table · slice₀ … sliceₙ₋₁     n = ⌈height / block size⌉
//	header = magic · version · type byte, then uvarints width, height,
//	         block size and quantizer
//	table  = n uvarints, the byte length of each slice
//	slice  = one block row — a band of BlockSize pixel rows — decodable alone:
//	         inter: the row's vectors (DX, DY per block), then the band of the
//	                R, G and B residual planes in raster order;
//	         intra: the band of the R, G and B planes as level deltas, the
//	                predictor restarting at 0 at the start of each band.
//
// Every sequence is written in the significance layout on its own
// (appendSig), so no group crosses a plane or a slice.
const version = 4

// Encoder turns raw frames into bitstream frames. Frames must be fed in
// display order; the encoder tracks GOP position and reference state.
type Encoder struct {
	cfg   Config
	count int
	// prev is the previous *reconstructed* frame — predicting from the
	// reconstruction rather than the source keeps encoder and decoder in
	// lockstep and prevents drift.
	prev *frame.Image
	// pool recycles reconstruction images across frames; nil means plain
	// allocation (see SetPool).
	pool *bufpool.Pool
	// mvs is the persistent motion-vector scratch of encodeInter.
	mvs []MV
	// sched is the scheduler client the slice workers are attributed to; nil
	// means the default client (see SetSched).
	sched *parallel.Client
	// job is the frame being coded and slices its slice loop, bound once;
	// bands hands each worker its scratch for one sequence.
	job    sliceJob
	slices func(lo, hi int, vals []int32)
	bands  *parallel.Scratch[[]int32]
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
	// A worker's scratch holds the longest sequence a slice codes: a band of
	// one plane or, on a frame one pixel wide, a row of vector components.
	n := max(min(cfg.BlockSize, cfg.Height)*cfg.Width, 2*((cfg.Width+cfg.BlockSize-1)/cfg.BlockSize))
	return &Encoder{cfg: cfg, bands: parallel.NewScratch(func() []int32 { return make([]int32, n) })}, nil
}

// SetPool makes the encoder draw its per-frame reconstruction frames from p
// (nil reverts to plain allocation). The pool must outlive the encoder's use
// of it.
func (e *Encoder) SetPool(p *bufpool.Pool) { e.pool = p }

// SetSched attributes the encoder's row-parallel passes (motion search,
// residual and reconstruction) to the scheduler client c, so a session's
// encode shares the worker pool by its priority; nil reverts to
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

// Encode encodes the next frame and returns its bitstream and type.
func (e *Encoder) Encode(im *frame.Image) ([]byte, FrameType, error) {
	return e.EncodeInto(nil, im)
}

// EncodeInto is Encode appending the bitstream to dst (which may be nil or
// a recycled buffer with spare capacity) instead of allocating a fresh one.
func (e *Encoder) EncodeInto(dst []byte, im *frame.Image) ([]byte, FrameType, error) {
	if im.W != e.cfg.Width || im.H != e.cfg.Height {
		return nil, 0, fmt.Errorf("codec: frame is %dx%d, stream is %dx%d", im.W, im.H, e.cfg.Width, e.cfg.Height)
	}
	h := header{ftype: Inter, w: e.cfg.Width, h: e.cfg.Height, bs: e.cfg.BlockSize, q: e.cfg.QStep}
	if e.count%e.cfg.GOPSize == 0 || e.prev == nil {
		h.ftype = Intra
	}
	e.count++
	dst = appendHeader(dst, h.ftype, e.cfg)
	data, recon := e.encodeSlices(dst, im.Compact(), h)
	// The outgoing reference is dead once the new reconstruction exists;
	// recycling it here (not before: an inter frame reads it) lets one session
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
	// pool recycles decoded images; nil means plain allocation (see
	// SetPool).
	pool *bufpool.Pool
	// mvFree and sideFree recycle the MV grids and SideInfo headers (each
	// with its band table) of released frames. The decoder is
	// single-goroutine, so plain slices do.
	mvFree   [][]MV
	sideFree []*SideInfo
	// job is the frame under reconstruction and runSlices its slice loop,
	// bound once: both are kept here so a frame costs no closure, table or
	// scratch allocation.
	job       frameJob
	runSlices func(lo, hi int)
	// reference makes every slice take the two-pass form — entropy-decode the
	// band into a value plane, then the clamped per-pixel loops — serially:
	// what the sparse slice loops are differentially tested against.
	reference bool
}

// NewDecoder creates a decoder.
func NewDecoder() *Decoder { return &Decoder{} }

// SetPool makes the decoder draw decoded images from p (nil reverts to
// plain allocation). Callers that set a pool should hand finished frames
// back with Recycle.
func (d *Decoder) SetPool(p *bufpool.Pool) { d.pool = p }

// Recycle hands a decoded frame's buffers back to the decoder's pool. The
// caller must be done with every alias into the frame (image planes, MV
// grid, side info). The current reference image is retired only after the
// next Decode stops predicting from it; everything else is reusable
// immediately. Safe to call with a nil pool or frame (no-op).
func (d *Decoder) Recycle(df *DecodedFrame) {
	if d == nil || df == nil {
		return
	}
	if side := df.Side; side != nil {
		df.Side = nil
		if side.MVs != nil && len(d.mvFree) < 8 {
			d.mvFree = append(d.mvFree, side.MVs)
		}
		side.MVs = nil
		if len(d.sideFree) < 8 {
			// The band table goes back with the header, cleared: its entries
			// alias the payload, which is the caller's again.
			clear(side.bands)
			*side = SideInfo{bands: side.bands[:0]}
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
// inter frames the result includes the NEMO side information. A frame that
// fails to decode leaves the decoder as it was: the inter reference is
// unchanged and every buffer drawn for the frame is back in the pool.
func (d *Decoder) Decode(data []byte) (*DecodedFrame, error) {
	hdr, rest, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	switch hdr.ftype {
	case Intra:
	case Inter:
		if d.prev == nil {
			return nil, fmt.Errorf("%w: inter frame without reference", ErrCorrupt)
		}
		if d.prev.W != hdr.w || d.prev.H != hdr.h {
			return nil, fmt.Errorf("%w: inter frame %dx%d but reference is %dx%d", ErrCorrupt, hdr.w, hdr.h, d.prev.W, d.prev.H)
		}
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, hdr.ftype)
	}
	j := &d.job
	bh := (hdr.h + hdr.bs - 1) / hdr.bs
	if j.body, err = j.parseTable(bh, rest); err != nil {
		return nil, err
	}
	j.h, j.bw = hdr, (hdr.w+hdr.bs-1)/hdr.bs
	j.im = d.pool.Image(hdr.w, hdr.h)
	if hdr.ftype == Inter {
		j.ref = d.prev.Compact()
		j.side = d.getSide()
		bands := j.side.bands
		if cap(bands) < bh {
			bands = make([][3]sigSeq, bh)
		}
		*j.side = SideInfo{BlocksX: j.bw, BlocksY: bh, BlockSize: hdr.bs, W: hdr.w, H: hdr.h,
			MVs: d.getMVs(j.bw * bh), q: int32(hdr.q), bands: bands[:bh]}
		if cap(j.mvVals) < 2*j.bw*bh {
			j.mvVals = make([]int32, 2*j.bw*bh)
		}
	}
	// Slices write disjoint pixel rows of the image, rows of the MV grid and
	// entries of the band table and only read the reference, so they
	// parallelise freely.
	if d.runSlices == nil {
		d.runSlices = d.slices
	}
	if d.reference {
		d.slices(0, bh)
	} else {
		parallel.For(bh, d.runSlices)
	}
	df := DecodedFrame{Type: hdr.ftype, Image: j.im, Side: j.side}
	err = j.err
	j.body, j.im, j.ref, j.side, j.err = nil, nil, nil, nil, nil
	if err != nil {
		d.Recycle(&df)
		return nil, err
	}
	d.retire(df.Image)
	return &df, nil
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
}

func appendHeader(buf []byte, t FrameType, cfg Config) []byte {
	buf = append(buf, magic, version, byte(t))
	buf = binary.AppendUvarint(buf, uint64(cfg.Width))
	buf = binary.AppendUvarint(buf, uint64(cfg.Height))
	buf = binary.AppendUvarint(buf, uint64(cfg.BlockSize))
	return binary.AppendUvarint(buf, uint64(cfg.QStep))
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
	return h, rest, nil
}

// frameJob is one frame under reconstruction, shared by the slice workers.
type frameJob struct {
	h  header
	bw int
	// body holds the slices back to back; slice s is body[ends[s-1]:ends[s]].
	body []byte
	ends []int
	// im is the output; ref (packed) and side are set for inter frames only.
	im, ref *frame.Image
	side    *SideInfo
	// mvVals is the entropy scratch of the MV rows, 2·bw values per slice.
	mvVals []int32

	// err is the failure of the lowest slice that failed, errSlice its index:
	// which slice a worker reaches first depends on scheduling, the error
	// reported must not.
	mu       sync.Mutex
	err      error
	errSlice int
}

// parseTable reads the n slice lengths at the head of data into j.ends and
// returns the body they describe. n comes from the bounded header; nothing is
// allocated unless data is long enough to hold n entries, and the lengths
// must sum to the body exactly.
func (j *frameJob) parseTable(n int, data []byte) ([]byte, error) {
	if len(data) < n {
		return nil, fmt.Errorf("%w: truncated slice table", ErrCorrupt)
	}
	if cap(j.ends) < n {
		j.ends = make([]int, n)
	}
	j.ends = j.ends[:n]
	end := 0
	for s := range j.ends {
		v, m := binary.Uvarint(data)
		if m <= 0 {
			return nil, fmt.Errorf("%w: truncated slice table", ErrCorrupt)
		}
		data = data[m:]
		// The entries still to come are in data too, so what is left can be
		// short of the bytes already claimed: compare as ints before widening.
		if left := len(data) - end; left < 0 || v > uint64(left) {
			return nil, fmt.Errorf("%w: slice %d of %d bytes runs past the frame", ErrCorrupt, s, v)
		}
		end += int(v)
		j.ends[s] = end
	}
	if end != len(data) {
		return nil, fmt.Errorf("%w: slices cover %d of %d body bytes", ErrCorrupt, end, len(data))
	}
	return data, nil
}

// slices decodes slices [lo, hi), recording the lowest failure.
func (d *Decoder) slices(lo, hi int) {
	j := &d.job
	for s := lo; s < hi; s++ {
		start := 0
		if s > 0 {
			start = j.ends[s-1]
		}
		var rest []byte
		var err error
		if j.side == nil {
			rest, err = d.intraSlice(s, j.body[start:j.ends[s]])
		} else {
			rest, err = d.interSlice(s, j.body[start:j.ends[s]])
		}
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%w: %d spare bytes", ErrCorrupt, len(rest))
		}
		if err == nil {
			continue
		}
		j.mu.Lock()
		if j.err == nil || s < j.errSlice {
			j.err, j.errSlice = fmt.Errorf("slice %d: %w", s, err), s
		}
		j.mu.Unlock()
	}
}

// intraSlice reconstructs band by of an intra frame and returns the bytes it
// did not consume. The shipped form walks each plane's significance words
// once, the level changing only at a non-zero: the span up to the next one
// is a constant fill.
func (d *Decoder) intraSlice(by int, data []byte) ([]byte, error) {
	j := &d.job
	h := j.h
	y := by * h.bs
	band, n := y*h.w, min(h.bs, h.h-y)*h.w
	var vals []int32
	if d.reference {
		vals = make([]int32, n)
	}
	for p := 0; p < 3; p++ {
		s, rest, err := parseSig(data, n)
		if err != nil {
			return nil, err
		}
		data = rest
		rp := srcPlane(j.im, p)[band : band+n]
		if d.reference {
			s.values(vals)
			acc, over := int32(0), false
			for i, dv := range vals {
				acc += dv
				over = over || acc < -maxLevel || acc > maxLevel
				rp[i] = clamp8(acc * int32(h.q))
			}
			if over {
				err = errLevel
			}
		} else {
			err = fillIntra(rp, int32(h.q), &s)
		}
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// fillIntra undoes the delta prediction of one plane's band, quantized at
// q, straight from its significance words. A level outside ±maxLevel is
// reported once the band is filled, as the reference reports it.
func fillIntra(rp []uint8, q int32, s *sigSeq) error {
	esc := s.escapes()
	acc, over := int32(0), false
	pos, c8, k := 0, uint64(0), 0
	for at, g := 0, (sigGroups{occ: s.occ, bi: -1}); at < len(s.words); at += 8 {
		base := 64 * g.next()
		w := binary.LittleEndian.Uint64(s.words[at:])
		sb := signBits(s.signs, k)
		for k += bits.OnesCount64(w); w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			v := int32(1)
			if i == esc.idx {
				v = esc.mag
				esc.next()
			}
			neg := int32(sb & 1)
			sb >>= 1
			fillSpan(rp, pos, i, c8)
			acc += (v ^ -neg) + neg
			over = over || acc < -maxLevel || acc > maxLevel
			c8, pos = uint64(clamp8(acc*q))*0x0101010101010101, i
		}
	}
	fillSpan(rp, pos, len(rp), c8)
	if over {
		return errLevel
	}
	return nil
}

// fillSpan sets rp[pos:end] to the byte c8 repeats, eight bytes a store. The
// last store may run past end (never past rp): the spans are filled in
// order, so the next span overwrites what it wrote there.
func fillSpan(rp []uint8, pos, end int, c8 uint64) {
	for ; pos < end && pos+8 <= len(rp); pos += 8 {
		binary.LittleEndian.PutUint64(rp[pos:], c8)
	}
	for ; pos < end; pos++ {
		rp[pos] = uint8(c8)
	}
}

// interSlice reconstructs block row by of an inter frame — vectors and
// pixels — files its residual sequences in the side info's band table and
// returns the bytes it did not consume. The shipped form writes the
// motion-compensated prediction into the output first and then walks each
// plane's significance words once, adding only the non-zero residuals onto
// it: the same int32 expression as the reference's clamp8(pred + v·q),
// evaluated where v ≠ 0 (elsewhere it reduces to pred, which is what the
// prediction pass left).
func (d *Decoder) interSlice(by int, data []byte) ([]byte, error) {
	j := &d.job
	h, bw := j.h, j.bw
	y := by * h.bs
	hh := min(h.bs, h.h-y)
	band, n := y*h.w, hh*h.w
	mvs := j.side.MVs[by*bw : (by+1)*bw]
	data, err := decodeMVRow(mvs, j.mvVals[2*by*bw:2*(by+1)*bw], data)
	if err != nil {
		return nil, err
	}
	pl := interPlane{h: h}
	if d.reference {
		pl.vals = make([]int32, n)
	}
	for p := 0; p < 3; p++ {
		s, rest, err := parseSig(data, n)
		if err != nil {
			return nil, err
		}
		data = rest
		j.side.bands[by][p] = s
		pl.rp, pl.refp = srcPlane(j.im, p), srcPlane(j.ref, p)
		if d.reference {
			s.values(pl.vals)
			for bx, mv := range mvs {
				x := bx * h.bs
				pl.blockClamped(x, y, min(h.bs, h.w-x), hh, mv)
			}
			continue
		}
		pl.predictBand(y, hh, mvs)
		addResiduals(pl.rp[band:band+n], int32(h.q), &s)
	}
	return data, nil
}

// decodeMVRow decodes one block row's vectors — 2·len(mvs) values, DX then
// DY per block — through the scratch vals.
func decodeMVRow(mvs []MV, vals []int32, data []byte) ([]byte, error) {
	s, data, err := parseSig(data, len(vals))
	if err != nil {
		return nil, err
	}
	s.values(vals)
	for i := range mvs {
		dx, dy := vals[2*i], vals[2*i+1]
		if dx < -128 || dx > 127 || dy < -128 || dy > 127 {
			return nil, fmt.Errorf("%w: MV out of range (%d,%d)", ErrCorrupt, dx, dy)
		}
		mvs[i] = MV{DX: int8(dx), DY: int8(dy)}
	}
	return data, nil
}

// interPlane is one colour plane of an inter frame under reconstruction:
// the motion-compensated prediction from refp plus the dequantized residual
// gives the pixels rp. rp and refp are whole planes, packed, width h.w;
// vals — the reference form's entropy output — is the band being
// reconstructed.
type interPlane struct {
	h        header
	rp, refp []uint8
	vals     []int32
}

// predictBand writes the motion-compensated prediction of the hh pixel rows
// from y into rp. A run of neighbouring blocks that share an integer-pel
// vector whose displaced footprint lies inside the frame is one row copy per
// pixel row; border blocks and vectors pointing off the frame take the
// clamped per-pixel form.
func (pl *interPlane) predictBand(y, hh int, mvs []MV) {
	h := pl.h
	for bx := 0; bx < len(mvs); {
		mv := mvs[bx]
		x := bx * h.bs
		dx, dy := int(mv.DX), int(mv.DY)
		if x+dx < 0 || min(x+h.bs, h.w)+dx > h.w || y+dy < 0 || y+hh+dy > h.h {
			pl.predictClamped(x, y, min(h.bs, h.w-x), hh, mv)
			bx++
			continue
		}
		// The left edge only moves inward as the run grows; the right edge is
		// checked block by block.
		end := bx + 1
		for end < len(mvs) && mvs[end] == mv && min((end+1)*h.bs, h.w)+dx <= h.w {
			end++
		}
		w := min(end*h.bs, h.w) - x
		for sy := y; sy < y+hh; sy++ {
			o := sy*h.w + x
			r := (sy+dy)*h.w + x + dx
			if w == 16 {
				// One block at the default size, most runs: a fixed-size
				// move instead of a call to memmove.
				*(*[16]byte)(pl.rp[o:]) = [16]byte(pl.refp[r:])
			} else {
				copy(pl.rp[o:o+w], pl.refp[r:r+w])
			}
		}
		bx = end
	}
}

// predictClamped is predictBand's general per-pixel form for one block.
func (pl *interPlane) predictClamped(x, y, w, hh int, mv MV) {
	h := pl.h
	for sy := y; sy < y+hh; sy++ {
		ry := clampInt(sy+int(mv.DY), 0, h.h-1)
		for sx := x; sx < x+w; sx++ {
			pl.rp[sy*h.w+sx] = pl.refp[ry*h.w+clampInt(sx+int(mv.DX), 0, h.w-1)]
		}
	}
}

// addResiduals walks the significance words of one plane's band once and
// adds each non-zero residual — ±q, or an escaped level times q —
// dequantized onto the prediction in rp; zeros are skipped, not visited.
// Where the CPU has a fast PDEP, each whole word goes through addWord's 64
// lanes at once (DESIGN.md §28).
func addResiduals(rp []uint8, q int32, s *sigSeq) { addResidualsWith(rp, q, s, useAddWord) }

// addResidualsWith is addResiduals with the form chosen: words sends every
// word that lies whole inside rp through addWord, and the scalar walk takes
// the others — all of them when words is false. The two forms write the
// same bytes.
func addResidualsWith(rp []uint8, q int32, s *sigSeq, words bool) {
	esc := s.escapes()
	k := 0
	for at, g := 0, (sigGroups{occ: s.occ, bi: -1}); at < len(s.words); at += 8 {
		base := 64 * g.next()
		w := binary.LittleEndian.Uint64(s.words[at:])
		sb := signBits(s.signs, k)
		k += bits.OnesCount64(w)
		if words && base+64 <= len(rp) {
			// The word's escapes are added here and masked out of addWord's
			// lanes. An escape on bit b is the word's r-th non-zero, r the
			// set bits below b, so its sign is sb's bit r: the bit PDEP
			// places on b.
			em := uint64(0)
			for ; uint(esc.idx-base) < 64; esc.next() {
				b := uint(esc.idx - base)
				em |= 1 << b
				n := int32(sb >> bits.OnesCount64(w&(1<<b-1)) & 1)
				rp[esc.idx] = clamp8(int32(rp[esc.idx]) + (q*esc.mag ^ -n) + n)
			}
			addWord(&rp[base], w, sb, em, q)
			continue
		}
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			d := q
			if i == esc.idx {
				d *= esc.mag
				esc.next()
			}
			neg := int32(sb & 1)
			sb >>= 1
			d = (d ^ -neg) + neg // ±d
			rp[i] = clamp8(int32(rp[i]) + d)
		}
	}
}

// residualInto is addResiduals' walk for the side info: each non-zero level,
// dequantized at q and clamped to the int16 range, lands in dst, which holds
// zeros.
func residualInto(dst []float64, q int32, s *sigSeq) {
	esc := s.escapes()
	k := 0
	for at, g := 0, (sigGroups{occ: s.occ, bi: -1}); at < len(s.words); at += 8 {
		base := 64 * g.next()
		w := binary.LittleEndian.Uint64(s.words[at:])
		sb := signBits(s.signs, k)
		for k += bits.OnesCount64(w); w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			d := q
			if i == esc.idx {
				d *= esc.mag
				esc.next()
			}
			neg := int32(sb & 1)
			sb >>= 1
			dst[i] = float64(clampRes((d ^ -neg) + neg))
		}
	}
}

// blockClamped is the reference per-pixel loop: every reference coordinate
// is clamped to the frame.
func (pl *interPlane) blockClamped(x, y, w, hh int, mv MV) {
	h := pl.h
	band := y * h.w // y is the band's first row: vals is indexed from there
	for j := 0; j < hh; j++ {
		sy := y + j
		ry := clampInt(sy+int(mv.DY), 0, h.h-1)
		for i := 0; i < w; i++ {
			sx := x + i
			pred := int32(pl.refp[ry*h.w+clampInt(sx+int(mv.DX), 0, h.w-1)])
			pl.rp[sy*h.w+sx] = clamp8(pred + pl.vals[sy*h.w+sx-band]*int32(h.q))
		}
	}
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
