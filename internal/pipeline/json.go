package pipeline

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"gamestreamsr/internal/codec"
	"gamestreamsr/internal/device"
	"gamestreamsr/internal/frame"
)

// The JSON form is the archival/interchange format for experiment results:
// durations are serialised as float milliseconds and rails by name, so the
// files are directly consumable by plotting scripts without Go-specific
// decoding. Pixel data (Upscaled) is never serialised.

// resultJSON mirrors Result for serialisation.
type resultJSON struct {
	Pipeline string      `json:"pipeline"`
	Device   string      `json:"device"`
	Frames   []frameJSON `json:"frames"`
}

type frameJSON struct {
	Index      int                `json:"index"`
	Type       string             `json:"type"`
	Stages     map[string]float64 `json:"stages_ms"`
	RoI        frame.Rect         `json:"roi"`
	PSNR       jsonFloat          `json:"psnr_db"`
	SSIM       float64            `json:"ssim"`
	LPIPS      float64            `json:"lpips"`
	Bytes      int                `json:"bytes"`
	CodedBytes int                `json:"coded_bytes"`
	Energy     map[string]float64 `json:"energy_j"`
}

// jsonFloat is a float64 that survives JSON when infinite: PSNR is +Inf for
// a frame identical to its ground truth, which encoding/json refuses to
// write. An infinity is written as the string "+Inf" or "-Inf"; every finite
// value is written exactly as a plain float64, so finite archives are
// unchanged.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(f), 0) {
		return json.Marshal(strconv.FormatFloat(float64(f), 'g', -1, 64))
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(f))
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !math.IsInf(v, 0) {
		return fmt.Errorf("pipeline: %q is neither a number nor an infinity", s)
	}
	*f = jsonFloat(v)
	return nil
}

// WriteJSON serialises the result (without pixel data) as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	out := resultJSON{Pipeline: r.Pipeline}
	if r.Device != nil {
		out.Device = r.Device.Name
	}
	for _, f := range r.Frames {
		fj := frameJSON{
			Index:      f.Index,
			Type:       f.Type.String(),
			Stages:     map[string]float64{},
			RoI:        f.RoI,
			PSNR:       jsonFloat(f.PSNR),
			SSIM:       f.SSIM,
			LPIPS:      f.LPIPS,
			Bytes:      f.Bytes,
			CodedBytes: f.CodedBytes,
			Energy:     map[string]float64{},
		}
		names := f.Stages.Names()
		for i, v := range f.Stages.Values() {
			fj.Stages[names[i]] = float64(v) / float64(time.Millisecond)
		}
		for rail, j := range f.Energy {
			fj.Energy[rail.String()] = j
		}
		out.Frames = append(out.Frames, fj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadResultJSON loads a result previously written by WriteJSON. The device
// is resolved by name against the built-in profiles (nil if unknown) and
// pixel data is absent by construction.
func ReadResultJSON(r io.Reader) (*Result, error) {
	var in resultJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("pipeline: decoding result JSON: %w", err)
	}
	out := &Result{Pipeline: in.Pipeline}
	for _, p := range device.Profiles() {
		if p.Name == in.Device {
			out.Device = p
			break
		}
	}
	for _, fj := range in.Frames {
		fr := FrameResult{
			Index:      fj.Index,
			RoI:        fj.RoI,
			PSNR:       float64(fj.PSNR),
			SSIM:       fj.SSIM,
			LPIPS:      fj.LPIPS,
			Bytes:      fj.Bytes,
			CodedBytes: fj.CodedBytes,
			Energy:     map[device.Rail]float64{},
		}
		switch fj.Type {
		case "intra":
			fr.Type = codec.Intra
		case "inter":
			fr.Type = codec.Inter
		default:
			return nil, fmt.Errorf("pipeline: unknown frame type %q", fj.Type)
		}
		var st Stages
		names := st.Names()
		vals := make([]time.Duration, len(names))
		for i, name := range names {
			vals[i] = time.Duration(math.Round(fj.Stages[name] * float64(time.Millisecond)))
		}
		st.Input, st.Render, st.RoIDetect, st.Encode = vals[0], vals[1], vals[2], vals[3]
		st.Transmit, st.Decode, st.Upscale, st.Display = vals[4], vals[5], vals[6], vals[7]
		fr.Stages = st
		for name, j := range fj.Energy {
			found := false
			for _, rail := range device.Rails() {
				if rail.String() == name {
					fr.Energy[rail] = j
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("pipeline: unknown energy rail %q", name)
			}
		}
		out.Frames = append(out.Frames, fr)
	}
	return out, nil
}
