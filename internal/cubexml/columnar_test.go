package cubexml

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/obs"
)

func encodeColumnarT(t testing.TB, e *core.Experiment) []byte {
	t.Helper()
	data, err := Encode(context.Background(), e, FormatColumnar)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Fatalf("columnar body of %d bytes in a %d-byte buffer; want it sized exactly", len(data), cap(data))
	}
	return data
}

// readColumnarT runs the columnar decoder alone, without ReadBytes'
// format dispatch.
func readColumnarT(data []byte, lim Limits) (*core.Experiment, error) {
	st, _ := obs.Begin(context.Background(), obs.Parse)
	return readColumnar(data, ReadOptions{Limits: lim}, &st)
}

// sameBits reports whether two experiments store the same tuples with
// bit-identical values.
func sameBits(a, b *core.Experiment) error {
	ka, va := a.SeverityColumns()
	kb, vb := b.SeverityColumns()
	if len(ka) != len(kb) {
		return fmt.Errorf("%d tuples vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] || math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
			return fmt.Errorf("tuple %d: key %d value %x vs key %d value %x",
				i, ka[i], math.Float64bits(va[i]), kb[i], math.Float64bits(vb[i]))
		}
	}
	return nil
}

// TestColumnarMatchesXML sends random experiments through both encodings:
// each must come back AlmostEqual at eps 0 to the other, with
// bit-identical values.
func TestColumnarMatchesXML(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	extremes := []float64{1e15 + 1, -(1e15 + 1), 0.1 + 0.2, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e-300}
	for i := 0; i < 200; i++ {
		e := randomExperiment(r)
		if i%4 == 0 {
			ths := e.Threads()
			e.SetSeverity(e.Metrics()[0], e.CallNodes()[0], ths[len(ths)-1], extremes[i/4%len(extremes)])
		}
		var xbuf bytes.Buffer
		if err := Write(&xbuf, e); err != nil {
			t.Fatal(err)
		}
		fromXML, err := ReadBytes(context.Background(), xbuf.Bytes(), ReadOptions{Limits: DefaultLimits})
		if err != nil {
			t.Fatal(err)
		}
		fromCol, err := ReadBytes(context.Background(), encodeColumnarT(t, e), ReadOptions{Limits: DefaultLimits})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !core.AlmostEqual(fromXML, fromCol, 0) {
			t.Fatalf("case %d: columnar and XML results differ", i)
		}
		if err := sameBits(fromXML, fromCol); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := sameBits(e, fromCol); err != nil {
			t.Fatalf("case %d against the source: %v", i, err)
		}
		if fromCol.Title != e.Title || fromCol.Fingerprint() != fromXML.Fingerprint() {
			t.Fatalf("case %d: metadata differs", i)
		}
	}
}

// TestReadBytesXMLOnly: with XMLOnly a columnar body is not recognised
// and fails as any other non-XML input does.
func TestReadBytesXMLOnly(t *testing.T) {
	_, err := ReadBytes(context.Background(), encodeColumnarT(t, sample()), ReadOptions{XMLOnly: true})
	if err == nil || !strings.Contains(err.Error(), "cubexml: decode") {
		t.Fatalf("err = %v, want an XML decode error", err)
	}
}

// TestColumnarCorruptLikeXML: every truncation of a body fails as a plain
// decode error, as truncated XML does, and a metadata document over the
// limits fails with ErrLimit in both encodings.
func TestColumnarCorruptLikeXML(t *testing.T) {
	e := sample()
	col := encodeColumnarT(t, e)
	xmlDoc := []byte(bufString(e, t))
	for n := 0; n < len(col); n++ {
		_, err := readColumnarT(col[:n], DefaultLimits)
		if err == nil || errors.Is(err, ErrLimit) {
			t.Fatalf("columnar body cut at %d/%d: err = %v, want a decode error", n, len(col), err)
		}
	}
	for _, n := range []int{0, len(xmlDoc) / 2, len(xmlDoc) - 10} {
		if _, err := ReadBytes(context.Background(), xmlDoc[:n], ReadOptions{Limits: DefaultLimits}); err == nil || errors.Is(err, ErrLimit) {
			t.Fatalf("XML cut at %d: err = %v, want a decode error", n, err)
		}
	}
	tight := Limits{MaxElements: 5}
	_, errX := ReadBytes(context.Background(), xmlDoc, ReadOptions{Limits: tight})
	_, errC := readColumnarT(col, tight)
	if !errors.Is(errX, ErrLimit) || !errors.Is(errC, ErrLimit) {
		t.Fatalf("over the limits: XML %v, columnar %v; want ErrLimit from both", errX, errC)
	}
}

// columnarBody assembles a body from its parts, for hostile inputs.
func columnarBody(meta []byte, n uint64, deltas []uint64, vals []float64) []byte {
	out := []byte(columnarMagic)
	out = binary.AppendUvarint(out, uint64(len(meta)))
	out = append(out, meta...)
	out = binary.AppendUvarint(out, n)
	for _, d := range deltas {
		out = binary.AppendUvarint(out, d)
	}
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

func TestColumnarRejects(t *testing.T) {
	e := sample()
	last := uint64(len(e.Metrics())*len(e.CallNodes())*len(e.Threads()) - 1)
	meta, err := encodeMeta(e)
	if err != nil {
		t.Fatal(err)
	}
	withSev := []byte(bufString(e, t))
	cases := map[string]struct {
		body []byte
		want string
	}{
		"no magic":          {[]byte("<cube/>"), "magic"},
		"meta overrun":      {append([]byte(columnarMagic), 0xff, 0x01), "metadata length"},
		"meta severities":   {columnarBody(withSev, 0, nil, nil), "carries severities"},
		"count overrun":     {columnarBody(meta, 3, []uint64{0, 1}, []float64{1, 2}), "tuple count"},
		"repeated key":      {columnarBody(meta, 2, []uint64{1, 0}, []float64{1, 2}), "does not ascend"},
		"outside domain":    {columnarBody(meta, 2, []uint64{1, last}, []float64{1, 2}), "outside"},
		"first outside":     {columnarBody(meta, 1, []uint64{last + 1}, []float64{1}), "outside"},
		"wrapping delta":    {columnarBody(meta, 2, []uint64{5, math.MaxUint64 - 2}, []float64{1, 2}), "outside"},
		"zero value":        {columnarBody(meta, 2, []uint64{0, 1}, []float64{1, 0}), "non-zero and finite"},
		"negative zero":     {columnarBody(meta, 1, []uint64{0}, []float64{math.Copysign(0, -1)}), "non-zero and finite"},
		"nan value":         {columnarBody(meta, 1, []uint64{0}, []float64{math.NaN()}), "non-zero and finite"},
		"inf value":         {columnarBody(meta, 1, []uint64{0}, []float64{math.Inf(-1)}), "non-zero and finite"},
		"trailing bytes":    {append(columnarBody(meta, 1, []uint64{0}, []float64{1}), 0), "value bytes"},
		"bad metadata":      {columnarBody([]byte("<cube version=\"cube-go-1.0\"><metrics>"), 0, nil, nil), "cubexml: decode"},
		"metadata version":  {columnarBody([]byte(`<cube version="x"></cube>`), 0, nil, nil), "unsupported version"},
		"empty domain keys": {columnarBody([]byte(`<cube version="cube-go-1.0"></cube>`), 1, []uint64{0}, []float64{1}), "outside"},
	}
	for name, c := range cases {
		_, err := readColumnarT(c.body, DefaultLimits)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.want)
		}
	}
	// The first and last keys of the domain are accepted.
	got, err := readColumnarT(columnarBody(meta, 2, []uint64{0, last}, []float64{1, -2}), DefaultLimits)
	if err != nil || got.NonZeroCount() != 2 {
		t.Fatalf("keys 0 and %d: %v", last, err)
	}
}

// TestColumnarRefusesNonFinite: the columnar encoder refuses what the XML
// encoder refuses, with the same error.
func TestColumnarRefusesNonFinite(t *testing.T) {
	e := sample()
	e.SetSeverity(e.Metrics()[1], e.CallNodes()[1], e.Threads()[0], math.NaN())
	_, errX := Encode(context.Background(), e, FormatXML)
	_, errC := Encode(context.Background(), e, FormatColumnar)
	if errX == nil || errC == nil || errX.Error() != errC.Error() {
		t.Fatalf("XML %v, columnar %v; want the same refusal", errX, errC)
	}
}

// TestEncodeXMLMatchesWrite: the in-memory XML encoding is Write's bytes.
func TestEncodeXMLMatchesWrite(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		e := randomExperiment(r)
		got, err := Encode(context.Background(), e, FormatXML)
		if err != nil {
			t.Fatal(err)
		}
		if want := bufString(e, t); string(got) != want {
			t.Fatalf("case %d: Encode differs from Write", i)
		}
	}
}

// FuzzReadColumnar: the columnar reader never panics, and what it accepts
// is a valid experiment that re-encodes and re-reads to itself.
func FuzzReadColumnar(f *testing.F) {
	f.Add(encodeColumnarT(f, sample()))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(encodeColumnarT(f, randomExperiment(r)))
	}
	meta, err := encodeMeta(sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(columnarBody(meta, 2, []uint64{1, 0}, []float64{1, 2}))
	f.Add(columnarBody(meta, 1, []uint64{8}, []float64{1}))
	f.Add([]byte(columnarMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := readColumnarT(data, DefaultLimits)
		if err != nil {
			return
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("accepted an invalid experiment: %v", err)
		}
		back, err := readColumnarT(encodeColumnarT(t, e), DefaultLimits)
		if err != nil {
			t.Fatalf("re-encoded body unreadable: %v", err)
		}
		if back.Fingerprint() != e.Fingerprint() || sameBits(back, e) != nil {
			t.Fatalf("read-encode-read changed the experiment")
		}
	})
}

func BenchmarkWriteColumnar(b *testing.B) {
	e, _ := benchExperiment(b)
	data := encodeColumnarT(b, e)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(context.Background(), e, FormatColumnar); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadColumnar(b *testing.B) {
	e, _ := benchExperiment(b)
	data := encodeColumnarT(b, e)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readColumnarT(data, DefaultLimits); err != nil {
			b.Fatal(err)
		}
	}
}
