package pipeline

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"time"

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
