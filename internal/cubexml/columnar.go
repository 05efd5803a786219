package cubexml

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"cube/internal/core"
	"cube/internal/obs"
)

// The columnar body: a computed experiment in the severity store's own
// shape, for service responses. Uploads, the store and digest: names stay
// CUBE XML, so content addresses never depend on this encoding.
//
//	"CUBECOL1\n"                      magic line; the digit is the layout version
//	uvarint m, then m bytes           the metadata document: the XML the writer
//	                                  produces for e, with an empty <severity>
//	uvarint n                         stored tuples
//	n uvarints                        keys, each the difference to the previous
//	                                  key (the first to 0), strictly ascending
//	n × 8 bytes                       values, little-endian IEEE-754 float64
//
// A key is (mi*nC + ci)*nT + ti, where mi, ci and ti index the metric,
// call node and thread enumerations of the metadata (the pre-order and
// document order ids buildDocMeta assigns) and nC, nT are their sizes.
// Values round-trip bit for bit; no float is formatted or parsed.

// ColumnarType is the media type of the columnar body.
const ColumnarType = "application/vnd.cube.columnar"

const columnarMagic = "CUBECOL1\n"

// Format selects the encoding of a computed experiment.
type Format int

const (
	FormatXML      Format = iota // CUBE XML, the file format
	FormatColumnar               // the columnar body (ColumnarType)
)

// ContentType returns the media type of a body in format f.
func (f Format) ContentType() string {
	if f == FormatColumnar {
		return ColumnarType
	}
	return "application/xml; charset=utf-8"
}

// Encode encodes e in format f into one buffer, as one encode stage
// (span "cubexml.write"). XML bytes are exactly Write's; the columnar body
// is sized before its first byte is written, so its buffer never grows.
func Encode(ctx context.Context, e *core.Experiment, f Format) ([]byte, error) {
	st, _ := obs.Begin(ctx, obs.Encode)
	var out []byte
	var err error
	writes, written := obs.XMLWrites, obs.XMLWriteBytes
	if f == FormatColumnar {
		out, err = encodeColumnar(e)
		writes, written = obs.ColumnarWrites, obs.ColumnarWriteBytes
	} else {
		var buf bytes.Buffer
		err = writeFast(&buf, e)
		out = buf.Bytes()
	}
	if err == nil {
		st.Count(writes, 1)
		st.Count(written, int64(len(out)))
	}
	if sp := st.Span(); sp != nil {
		sp.SetAttr("cells", e.NonZeroCount())
	}
	st.End(err)
	return out, err
}

func encodeColumnar(e *core.Experiment) ([]byte, error) {
	keys, vals, err := severityColumns(e)
	if err != nil {
		return nil, err
	}
	meta, err := encodeMeta(e)
	if err != nil {
		return nil, err
	}
	size := len(columnarMagic) + uvarintLen(uint64(len(meta))) + len(meta) + uvarintLen(uint64(len(keys))) + 8*len(keys)
	prev := uint64(0)
	for _, k := range keys {
		size += uvarintLen(k - prev)
		prev = k
	}
	out := make([]byte, 0, size)
	out = append(out, columnarMagic...)
	out = binary.AppendUvarint(out, uint64(len(meta)))
	out = append(out, meta...)
	out = binary.AppendUvarint(out, uint64(len(keys)))
	prev = 0
	for _, k := range keys {
		out = binary.AppendUvarint(out, k-prev)
		prev = k
	}
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out, nil
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// readColumnar decodes a columnar body for ReadBytes. The metadata
// document goes through the XML reader under opts; the tuples must be
// strictly ascending keys inside the metadata's domain with non-zero
// finite values, and are installed as the sealed block as they stand,
// with no sort.
func readColumnar(data []byte, opts ReadOptions, st *obs.Stage) (*core.Experiment, error) {
	rest, ok := bytes.CutPrefix(data, []byte(columnarMagic))
	if !ok {
		return nil, errColumnar("missing %q magic line", columnarMagic[:len(columnarMagic)-1])
	}
	m, k := binary.Uvarint(rest)
	if k <= 0 || m > uint64(len(rest)-k) {
		return nil, errColumnar("metadata length overruns the body")
	}
	meta, rest := rest[k:k+int(m)], rest[k+int(m):]
	e, err := readFast(nil, meta, opts, st, fastDecode, readLimited)
	if err != nil {
		return nil, err
	}
	if e.NonZeroCount() != 0 {
		return nil, errColumnar("metadata document carries severities")
	}
	// Each tuple takes at least one key byte and eight value bytes.
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k)/9 {
		return nil, errColumnar("tuple count overruns the body")
	}
	rest = rest[k:]
	ing, err := e.NewSeverityIngest()
	if err != nil {
		return nil, err
	}
	nM, nC, nT := ing.Dims()
	domain := uint64(nM) * uint64(nC) * uint64(nT)
	keys := make([]uint64, n)
	prev := uint64(0)
	for i := range keys {
		d, k := binary.Uvarint(rest)
		switch {
		case k <= 0:
			return nil, errColumnar("key %d is truncated", i)
		case i > 0 && d == 0:
			return nil, errColumnar("key %d does not ascend", i)
		case d >= domain-prev:
			return nil, errColumnar("key %d is outside the %d×%d×%d domain", i, nM, nC, nT)
		}
		rest = rest[k:]
		prev += d
		keys[i] = prev
	}
	if uint64(len(rest)) != 8*n {
		return nil, errColumnar("%d value bytes for %d tuples", len(rest), n)
	}
	vals := make([]float64, n)
	for i := range vals {
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errColumnar("value %d is %v; stored severities are non-zero and finite", i, v)
		}
		vals[i] = v
	}
	ing.Commit(keys, vals, true)
	return e, nil
}

func errColumnar(format string, args ...any) error {
	return fmt.Errorf("cubexml: columnar body: "+format, args...)
}
