package diag

// A minimal reader for the pprof profile.proto wire format — just enough
// to resolve sample values, goroutine labels and symbolised stacks from
// the profiles runtime/pprof emits. The repo is dependency-free, so we
// cannot import github.com/google/pprof; this hand-rolled walker covers
// the subset the diag renderer and the label-attribution tests need:
//
//	Profile:  1 sample_type (ValueType), 2 sample (Sample),
//	          4 location (Location), 5 function (Function),
//	          6 string_table (string)
//	Sample:   1 location_id (repeated uint64, possibly packed),
//	          2 value (repeated int64, packed), 3 label (Label)
//	Label:    1 key (strtab), 2 str (strtab), 3 num (int64)
//	Location: 1 id, 4 line (Line)
//	Line:     1 function_id
//	Function: 1 id, 2 name (strtab)
//
// Unknown fields are skipped by wire type, so future proto additions
// don't break parsing.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// ProfileValueType is one entry of a profile's sample_type list, e.g.
// {"cpu", "nanoseconds"}.
type ProfileValueType struct {
	Type, Unit string
}

// ProfileSample is one decoded sample: its per-type values, its string
// labels (the pprof goroutine labels) and its symbolised stack, leaf
// first.
type ProfileSample struct {
	Value  []int64
	Labels map[string]string
	Stack  []string
}

// Profile is the decoded subset of a pprof profile.
type Profile struct {
	SampleType []ProfileValueType
	Samples    []ProfileSample
}

// CPUIndex returns the value index best representing CPU time: the
// sample type named "cpu", else the last one (runtime CPU profiles are
// [samples/count, cpu/nanoseconds]).
func (p *Profile) CPUIndex() int {
	for i, st := range p.SampleType {
		if st.Type == "cpu" {
			return i
		}
	}
	return len(p.SampleType) - 1
}

// ParseProfile decodes a (possibly gzipped) pprof protobuf profile.
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("diag: profile gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("diag: profile gunzip: %w", err)
		}
		data = raw
	}
	// First pass: collect raw sub-messages and the string table; strings
	// may legally appear after the messages that reference them.
	var (
		strtab    []string
		sampleRaw [][]byte
		vtRaw     [][]byte
		locRaw    [][]byte
		fnRaw     [][]byte
	)
	r := &protoReader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return nil, err
		}
		switch {
		case field == 1 && wt == 2:
			m, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			vtRaw = append(vtRaw, m)
		case field == 2 && wt == 2:
			m, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			sampleRaw = append(sampleRaw, m)
		case field == 4 && wt == 2:
			m, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			locRaw = append(locRaw, m)
		case field == 5 && wt == 2:
			m, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			fnRaw = append(fnRaw, m)
		case field == 6 && wt == 2:
			m, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(m))
		default:
			if err := r.skip(wt); err != nil {
				return nil, err
			}
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}

	funcs := make(map[uint64]string, len(fnRaw))
	for _, m := range fnRaw {
		var id, name uint64
		r := &protoReader{b: m}
		for !r.done() {
			field, wt, err := r.tag()
			if err != nil {
				return nil, err
			}
			switch {
			case field == 1 && wt == 0:
				id, err = r.varint()
			case field == 2 && wt == 0:
				name, err = r.varint()
			default:
				err = r.skip(wt)
			}
			if err != nil {
				return nil, err
			}
		}
		funcs[id] = str(name)
	}

	locs := make(map[uint64][]string, len(locRaw))
	for _, m := range locRaw {
		var id uint64
		var names []string
		r := &protoReader{b: m}
		for !r.done() {
			field, wt, err := r.tag()
			if err != nil {
				return nil, err
			}
			switch {
			case field == 1 && wt == 0:
				id, err = r.varint()
			case field == 4 && wt == 2:
				var line []byte
				line, err = r.bytesField()
				if err == nil {
					var fid uint64
					lr := &protoReader{b: line}
					for !lr.done() {
						lf, lwt, lerr := lr.tag()
						if lerr != nil {
							err = lerr
							break
						}
						if lf == 1 && lwt == 0 {
							fid, err = lr.varint()
						} else if lerr := lr.skip(lwt); lerr != nil {
							err = lerr
						}
						if err != nil {
							break
						}
					}
					if err == nil {
						names = append(names, funcs[fid])
					}
				}
			default:
				err = r.skip(wt)
			}
			if err != nil {
				return nil, err
			}
		}
		locs[id] = names
	}

	p := &Profile{}
	for _, m := range vtRaw {
		var typ, unit uint64
		r := &protoReader{b: m}
		for !r.done() {
			field, wt, err := r.tag()
			if err != nil {
				return nil, err
			}
			switch {
			case field == 1 && wt == 0:
				typ, err = r.varint()
			case field == 2 && wt == 0:
				unit, err = r.varint()
			default:
				err = r.skip(wt)
			}
			if err != nil {
				return nil, err
			}
		}
		p.SampleType = append(p.SampleType, ProfileValueType{Type: str(typ), Unit: str(unit)})
	}

	for _, m := range sampleRaw {
		s := ProfileSample{}
		var locIDs []uint64
		r := &protoReader{b: m}
		for !r.done() {
			field, wt, err := r.tag()
			if err != nil {
				return nil, err
			}
			switch {
			case field == 1 && wt == 0:
				v, err := r.varint()
				if err != nil {
					return nil, err
				}
				locIDs = append(locIDs, v)
			case field == 1 && wt == 2: // packed
				pk, err := r.bytesField()
				if err != nil {
					return nil, err
				}
				pr := &protoReader{b: pk}
				for !pr.done() {
					v, err := pr.varint()
					if err != nil {
						return nil, err
					}
					locIDs = append(locIDs, v)
				}
			case field == 2 && wt == 0:
				v, err := r.varint()
				if err != nil {
					return nil, err
				}
				s.Value = append(s.Value, int64(v))
			case field == 2 && wt == 2: // packed
				pk, err := r.bytesField()
				if err != nil {
					return nil, err
				}
				pr := &protoReader{b: pk}
				for !pr.done() {
					v, err := pr.varint()
					if err != nil {
						return nil, err
					}
					s.Value = append(s.Value, int64(v))
				}
			case field == 3 && wt == 2:
				lb, err := r.bytesField()
				if err != nil {
					return nil, err
				}
				var key, sv uint64
				hasStr := false
				lr := &protoReader{b: lb}
				for !lr.done() {
					lf, lwt, err := lr.tag()
					if err != nil {
						return nil, err
					}
					switch {
					case lf == 1 && lwt == 0:
						key, err = lr.varint()
					case lf == 2 && lwt == 0:
						sv, err = lr.varint()
						hasStr = true
					default:
						err = lr.skip(lwt)
					}
					if err != nil {
						return nil, err
					}
				}
				if hasStr {
					if s.Labels == nil {
						s.Labels = map[string]string{}
					}
					s.Labels[str(key)] = str(sv)
				}
			default:
				if err := r.skip(wt); err != nil {
					return nil, err
				}
			}
		}
		for _, id := range locIDs {
			s.Stack = append(s.Stack, locs[id]...)
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// protoReader walks protobuf wire format.
type protoReader struct {
	b []byte
	i int
}

func (r *protoReader) done() bool { return r.i >= len(r.b) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.i >= len(r.b) {
			return 0, fmt.Errorf("diag: truncated varint")
		}
		c := r.b[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c&0x80 == 0 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("diag: varint overflow")
}

// tag reads one field tag, returning the field number and wire type.
func (r *protoReader) tag() (int, int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytesField reads one length-delimited field body.
func (r *protoReader) bytesField() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.b)-r.i) < n {
		return nil, fmt.Errorf("diag: truncated bytes field (%d of %d)", len(r.b)-r.i, n)
	}
	m := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return m, nil
}

// skip discards one field of the given wire type.
func (r *protoReader) skip(wt int) error {
	switch wt {
	case 0:
		_, err := r.varint()
		return err
	case 1:
		if len(r.b)-r.i < 8 {
			return fmt.Errorf("diag: truncated fixed64")
		}
		r.i += 8
		return nil
	case 2:
		_, err := r.bytesField()
		return err
	case 5:
		if len(r.b)-r.i < 4 {
			return fmt.Errorf("diag: truncated fixed32")
		}
		r.i += 4
		return nil
	default:
		return fmt.Errorf("diag: unsupported wire type %d", wt)
	}
}
