package cubexml

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"

	"cube/internal/core"
)

// The fast write path. Metadata — small, irregular, full of strings that
// need escaping — still goes through encoding/xml via the shared
// buildDocMeta, so its bytes are the encoder's bytes by construction. The
// severity section — the bulk of any real file — is emitted by hand from
// the columnar store (core.EachSeverityRow): buffered writer, alloc-free
// value formatting (appendValue), no intermediate row strings. The two
// halves are joined by
// splicing the severity block in front of the encoder's closing </cube>
// tag; the differential test in fastwrite_test.go pins writeFast to
// writeLegacy byte for byte.

func writeFast(w io.Writer, e *core.Experiment) error {
	metrics, cnodes, threads := e.Metrics(), e.CallNodes(), e.Threads()
	// The legacy dense walk visits nothing when any severity dimension is
	// empty, so neither does the fast path — even if an (invalid)
	// experiment stores tuples.
	writeSev := len(metrics) > 0 && len(cnodes) > 0 && len(threads) > 0
	if writeSev {
		// Reject non-finite values before emitting any bytes: the legacy
		// writer builds the whole document first, so its errors never
		// leave a truncated file behind, and neither may ours.
		if err := checkEncodable(e, metrics, cnodes); err != nil {
			return err
		}
	}

	doc, _, _ := buildDocMeta(e)
	var meta bytes.Buffer
	meta.WriteString(xml.Header)
	enc := xml.NewEncoder(&meta)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("cubexml: encode: %w", err)
	}
	out := meta.Bytes()
	// Matrices is the last field of xCube and the encoder emits the
	// wrapper of an empty a>b slice, so the metadata document always ends
	// with an empty severity element before the root's closing tag. The
	// matrices are spliced into that wrapper.
	const tail = "\n  <severity></severity>\n</cube>"
	splice := len(out) - len(tail)
	if splice < 0 || string(out[splice:]) != tail {
		// Anything else means an encoder behaviour change — let the
		// reference writer produce the document.
		return writeLegacy(w, e)
	}

	bw := bufio.NewWriterSize(w, 64<<10)
	bw.Write(out[:splice])
	opened := false
	if writeSev {
		opened = emitSeverity(bw, e)
	}
	if !opened {
		bw.WriteString("\n  <severity></severity>")
	}
	bw.WriteString("\n</cube>\n")
	// bufio errors are sticky; one check at the end covers every write.
	return bw.Flush()
}

// checkEncodable scans the severity store for non-finite values in the
// same (metric, call node, thread) order as the legacy dense walk, so the
// first offender — and therefore the error message — is identical.
func checkEncodable(e *core.Experiment, metrics []*core.Metric, cnodes []*core.CallNode) error {
	var err error
	e.EachSeverityRow(func(mi, ci int, vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				err = fmt.Errorf("cubexml: severity of metric %q at %q is %v; refusing to encode non-finite values",
					metrics[mi].Name, cnodes[ci].Path(), v)
				return false
			}
		}
		return true
	})
	return err
}

// emitSeverity streams the severity section in the encoder's layout: one
// matrix per metric with stored rows, one row per call node, values
// space-separated in thread order, all-zero rows and matrices omitted.
// Row iteration order (metric, then call node enumeration order) is
// exactly the matrix order the legacy writer produces. It reports whether
// it wrote anything; with no non-zero rows the caller emits the empty
// wrapper instead.
func emitSeverity(bw *bufio.Writer, e *core.Experiment) bool {
	opened := false
	curMetric := -1
	var buf []byte // number scratch, reused across the whole section
	e.EachSeverityRow(func(mi, ci int, vals []float64) bool {
		nonZero := false
		for _, v := range vals {
			if v != 0 {
				nonZero = true
				break
			}
		}
		if !nonZero {
			return true
		}
		if !opened {
			bw.WriteString("\n  <severity>")
			opened = true
		}
		if mi != curMetric {
			if curMetric >= 0 {
				bw.WriteString("\n    </matrix>")
			}
			bw.WriteString("\n    <matrix metric=\"")
			buf = strconv.AppendInt(buf[:0], int64(mi), 10)
			bw.Write(buf)
			bw.WriteString("\">")
			curMetric = mi
		}
		bw.WriteString("\n      <row cnode=\"")
		buf = strconv.AppendInt(buf[:0], int64(ci), 10)
		bw.Write(buf)
		bw.WriteString("\">")
		for ti, v := range vals {
			if ti > 0 {
				bw.WriteByte(' ')
			}
			buf = appendValue(buf[:0], v)
			bw.Write(buf)
		}
		bw.WriteString("</row>")
		return true
	})
	if curMetric >= 0 {
		bw.WriteString("\n    </matrix>")
	}
	if opened {
		bw.WriteString("\n  </severity>")
	}
	return opened
}
