package cubexml

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"cube/internal/core"
)

// The XML writer. Metadata — small, irregular, full of strings that need
// escaping — goes through encoding/xml via buildDocMeta, so its bytes are
// the encoder's bytes by construction. The severity section — the bulk of
// any real file — is emitted by hand straight from the sealed block's
// columns (core.SeverityColumns): buffered writer, alloc-free value
// formatting (appendValue), no intermediate row strings. The two halves
// are joined by splicing the severity section into the empty one the
// encoder writes before the closing </cube> tag; the differential test in
// fastwrite_test.go pins the output to the encoding/xml reference writer
// byte for byte.

// severityTail is how the encoder ends every metadata document: Matrices
// is the last field of xCube and the encoder emits the wrapper of an
// empty a>b slice, so an empty severity element precedes the root's
// closing tag. TestEncoderTail pins it.
const severityTail = "\n  <severity></severity>\n</cube>"

// encodeMeta returns e's metadata document: the XML declaration and the
// root element with an empty severity section, without a final newline.
func encodeMeta(e *core.Experiment) ([]byte, error) {
	doc, _, _ := buildDocMeta(e)
	var meta bytes.Buffer
	meta.WriteString(xml.Header)
	enc := xml.NewEncoder(&meta)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("cubexml: encode: %w", err)
	}
	if !bytes.HasSuffix(meta.Bytes(), []byte(severityTail)) {
		return nil, errors.New("cubexml: encode: metadata document does not end in an empty severity element")
	}
	return meta.Bytes(), nil
}

// severityColumns returns the tuples the writers emit, after refusing
// non-finite values: none when a severity dimension is empty (the dense
// walk of the reference writer visits nothing then, even if an invalid
// experiment stores tuples), else the sealed block's columns.
func severityColumns(e *core.Experiment) (keys []uint64, vals []float64, err error) {
	metrics, cnodes, threads := e.Metrics(), e.CallNodes(), e.Threads()
	if len(metrics) == 0 || len(cnodes) == 0 || len(threads) == 0 {
		return nil, nil, nil
	}
	keys, vals = e.SeverityColumns()
	// Keys ascend in (metric, call node, thread) order, the reference
	// writer's walk, so the first offender — and the error text — match.
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			row := keys[i] / uint64(len(threads))
			return nil, nil, fmt.Errorf("cubexml: severity of metric %q at %q is %v; refusing to encode non-finite values",
				metrics[row/uint64(len(cnodes))].Name, cnodes[row%uint64(len(cnodes))].Path(), v)
		}
	}
	return keys, vals, nil
}

// writeFast writes e as CUBE XML through a 64 KiB buffered writer. Every
// check runs before the first byte is written, so a failed encode leaves
// no partial document behind.
func writeFast(w io.Writer, e *core.Experiment) error {
	keys, vals, err := severityColumns(e)
	if err != nil {
		return err
	}
	meta, err := encodeMeta(e)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.Write(meta[:len(meta)-len(severityTail)])
	if len(keys) == 0 {
		bw.WriteString("\n  <severity></severity>")
	} else {
		emitSeverity(bw, keys, vals, uint64(len(e.CallNodes())), uint64(len(e.Threads())))
	}
	bw.WriteString("\n</cube>\n")
	// bufio errors are sticky; one check at the end covers every write.
	return bw.Flush()
}

// emitSeverity writes the severity section in the encoder's layout: one
// matrix per metric with stored tuples, one row per call node with stored
// tuples, values space-separated in thread order with absent tuples as 0.
// Key order (metric, then call node enumeration order) is exactly the
// matrix and row order the reference writer produces.
func emitSeverity(bw *bufio.Writer, keys []uint64, vals []float64, nC, nT uint64) {
	bw.WriteString("\n  <severity>")
	curMetric := ^uint64(0)
	var buf []byte // number scratch, reused across the whole section
	for i := 0; i < len(keys); {
		row := keys[i] / nT
		if mi := row / nC; mi != curMetric {
			if curMetric != ^uint64(0) {
				bw.WriteString("\n    </matrix>")
			}
			bw.WriteString("\n    <matrix metric=\"")
			bw.Write(strconv.AppendUint(buf[:0], mi, 10))
			bw.WriteString("\">")
			curMetric = mi
		}
		bw.WriteString("\n      <row cnode=\"")
		bw.Write(strconv.AppendUint(buf[:0], row%nC, 10))
		bw.WriteString("\">")
		for t, base := uint64(0), row*nT; t < nT; t++ {
			if t > 0 {
				bw.WriteByte(' ')
			}
			if i < len(keys) && keys[i] == base+t {
				buf = appendValue(buf[:0], vals[i])
				bw.Write(buf)
				i++
			} else {
				bw.WriteByte('0')
			}
		}
		bw.WriteString("</row>")
	}
	bw.WriteString("\n    </matrix>\n  </severity>")
}
