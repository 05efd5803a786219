package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/obs"
	"cube/internal/store"
)

// decodeBody decodes one response document by its media type.
func decodeBody(t *testing.T, contentType string, data []byte) *core.Experiment {
	t.Helper()
	mt, _, _ := mime.ParseMediaType(contentType)
	var e *core.Experiment
	var err error
	switch mt {
	case cubexml.ColumnarType:
		if bytes.HasPrefix(data, []byte("<")) {
			t.Fatalf("columnar-typed body is XML")
		}
		e, err = cubexml.ReadBytes(context.Background(), data, cubexml.ReadOptions{Limits: cubexml.DefaultLimits})
	case "application/xml":
		e, err = cubexml.ReadBytes(context.Background(), data, cubexml.ReadOptions{Limits: cubexml.DefaultLimits, XMLOnly: true})
	default:
		t.Fatalf("unexpected media type %q", contentType)
	}
	if err != nil {
		t.Fatalf("%s body: %v", mt, err)
	}
	return e
}

// responseDocs returns the documents of a 200 response: its body, or each
// part of a multipart/mixed body, with their media types.
func responseDocs(t *testing.T, resp *http.Response) (types []string, docs [][]byte) {
	t.Helper()
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	if mt != "multipart/mixed" {
		return []string{resp.Header.Get("Content-Type")}, [][]byte{[]byte(body)}
	}
	mr := multipart.NewReader(bytes.NewReader([]byte(body)), params["boundary"])
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return types, docs
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		types, docs = append(types, p.Header.Get("Content-Type")), append(docs, data)
	}
}

// TestResponseNegotiation: without Accept every experiment-valued route
// answers the XML bytes Write produces; with the columnar type in Accept,
// /op, single-root /expr and multi-root /expr answer columnar bodies that
// decode to the same experiments, values bit for bit. Both with and
// without the timeout middleware's response buffer.
func TestResponseNegotiation(t *testing.T) {
	a, b := buildExp("a", 0.25), buildExp("b", 0)
	diff, err := core.Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := core.Scale(diff, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []*core.Experiment{diff, scaled}

	var exprBody bytes.Buffer
	mw := multipart.NewWriter(&exprBody)
	mw.WriteField("expr", `{"roots":[{"op":"difference","args":[{"ref":"operand:0"},{"ref":"operand:1"}]},
		{"op":"scale","factor":2,"args":[{"op":"difference","args":[{"ref":"operand:0"},{"ref":"operand:1"}]}]}]}`)
	for _, e := range []*core.Experiment{a, b} {
		fw, _ := mw.CreateFormFile("operand", "op.cube")
		cubexml.Write(fw, e)
	}
	mw.Close()
	single := bytes.NewBuffer(nil)
	mw1 := multipart.NewWriter(single)
	mw1.WriteField("expr", `{"op":"difference","args":[{"ref":"operand:0"},{"ref":"operand:1"}]}`)
	for _, e := range []*core.Experiment{a, b} {
		fw, _ := mw1.CreateFormFile("operand", "op.cube")
		cubexml.Write(fw, e)
	}
	mw1.Close()

	for _, timeout := range []bool{true, false} {
		cfg := quietConfig()
		if !timeout {
			cfg.RequestTimeout = 0
		}
		srv := httptest.NewServer(NewHandler(cfg))
		routes := map[string]func(accept string) *http.Response{
			"/op": func(accept string) *http.Response {
				return postAccept(t, srv, "/op/difference", accept, a, b)
			},
			"/expr single": func(accept string) *http.Response {
				return send(t, srv.URL+"/expr", mw1.FormDataContentType(), accept, single.Bytes())
			},
			"/expr multi": func(accept string) *http.Response {
				return send(t, srv.URL+"/expr", mw.FormDataContentType(), accept, exprBody.Bytes())
			},
		}
		// An Accept that refuses the type, or names another one, gets XML.
		for _, accept := range []string{cubexml.ColumnarType + ";q=0", cubexml.ColumnarType + "2"} {
			if types, _ := responseDocs(t, routes["/op"](accept)); types[0] != "application/xml; charset=utf-8" {
				t.Errorf("Accept %q: response typed %q, want XML", accept, types[0])
			}
		}
		for name, call := range routes {
			xmlTypes, xmlDocs := responseDocs(t, call(""))
			colTypes, colDocs := responseDocs(t, call(cubexml.ColumnarType+", application/xml;q=0.5"))
			if len(xmlDocs) != len(colDocs) || (name == "/expr multi") != (len(xmlDocs) == 2) {
				t.Fatalf("%s: %d XML documents, %d columnar", name, len(xmlDocs), len(colDocs))
			}
			for i := range xmlDocs {
				var wantXML bytes.Buffer
				if err := cubexml.Write(&wantXML, want[i]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(xmlDocs[i], wantXML.Bytes()) || xmlTypes[i] != "application/xml; charset=utf-8" {
					t.Errorf("%s (timeout %v) root %d: without Accept the body is not Write's XML (%s)", name, timeout, i, xmlTypes[i])
				}
				if colTypes[i] != cubexml.ColumnarType {
					t.Errorf("%s root %d: columnar Content-Type = %q", name, i, colTypes[i])
				}
				fromXML, fromCol := decodeBody(t, xmlTypes[i], xmlDocs[i]), decodeBody(t, colTypes[i], colDocs[i])
				if !core.AlmostEqual(fromXML, fromCol, 0) {
					t.Errorf("%s root %d: columnar and XML bodies decode differently", name, i)
				}
				kx, vx := fromXML.SeverityColumns()
				kc, vc := fromCol.SeverityColumns()
				for j := range vx {
					if kx[j] != kc[j] || math.Float64bits(vx[j]) != math.Float64bits(vc[j]) {
						t.Fatalf("%s root %d: tuple %d differs in its bits", name, i, j)
					}
				}
			}
		}
		srv.Close()
	}
}

// TestEncodeFailureIsClean500: a result the encoders refuse (a scale that
// overflows to +Inf) is a clean 500 in both formats, with no partial body.
func TestEncodeFailureIsClean500(t *testing.T) {
	srv := newTestServer(t)
	for _, accept := range []string{"", cubexml.ColumnarType} {
		resp := postAccept(t, srv, "/op/scale?factor=1e308", accept, buildExp("a", 100))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains([]byte(body), []byte("non-finite")) {
			t.Errorf("Accept %q: status %d, body %q; want a 500 naming the non-finite value", accept, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct == cubexml.ColumnarType || ct == "application/xml; charset=utf-8" {
			t.Errorf("Accept %q: error response typed %q", accept, ct)
		}
	}
}

func TestResponseFormat(t *testing.T) {
	col := cubexml.ColumnarType
	for accept, want := range map[string]cubexml.Format{
		"":                                  cubexml.FormatXML,
		"*/*":                               cubexml.FormatXML,
		col:                                 cubexml.FormatColumnar,
		col + ", application/xml;q=0.5":     cubexml.FormatColumnar,
		"application/xml, " + col + ";q=.9": cubexml.FormatColumnar,
		" APPLICATION/VND.CUBE.COLUMNAR ":   cubexml.FormatColumnar,
		col + ";q=0.001":                    cubexml.FormatColumnar,
		col + ";q=0":                        cubexml.FormatXML,
		col + "; level=1; Q = 0.000":        cubexml.FormatXML,
		col + "2":                           cubexml.FormatXML,
		col + "+json, application/xml":      cubexml.FormatXML,
		"application/xml;x=" + col:          cubexml.FormatXML,
	} {
		r := httptest.NewRequest(http.MethodPost, "/op/difference", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		if got := responseFormat(r); got != want {
			t.Errorf("Accept %q: format %v, want %v", accept, got, want)
		}
	}
	r := &http.Request{Header: http.Header{"Accept": {"text/html, " + col + ";q=0.9"}}}
	if n := testing.AllocsPerRun(100, func() { responseFormat(r) }); n != 0 {
		t.Errorf("responseFormat allocates %v times", n)
	}
}

// TestColumnarUploadsRefused: uploads stay CUBE XML. A columnar body is
// not a valid operand or store document, so content addresses always
// name XML.
func TestColumnarUploadsRefused(t *testing.T) {
	srv, _ := newStoreServer(t, nil, store.Options{})
	col, err := cubexml.Encode(context.Background(), buildExp("a", 0.25), cubexml.FormatColumnar)
	if err != nil {
		t.Fatal(err)
	}
	resp := putExperiment(t, srv, store.DigestOf(col).String(), col, "")
	if body := readAll(t, resp); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("PUT of a columnar body: status %d (%s), want 422", resp.StatusCode, body)
	}
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	fw, _ := mw.CreateFormFile("operand", "a.cube")
	fw.Write(col)
	mw.Close()
	resp = send(t, srv.URL+"/op/scale?factor=2", mw.FormDataContentType(), "", form.Bytes())
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("columnar operand: status %d (%s), want 400", resp.StatusCode, body)
	}
}

// TestColumnarWritesCounted: a columnar body counts in the encode
// families under format="columnar", so their sum over labels is every
// response byte encoded.
func TestColumnarWritesCounted(t *testing.T) {
	srv, reg := newMetricsServer(t, nil)
	resp := postAccept(t, srv, "/op/difference", cubexml.ColumnarType, buildExp("a", 1), buildExp("b", 0))
	n := len(readAll(t, resp))
	col := obs.L("format", "columnar")
	if got := reg.CounterValue("cube_xml_write_bytes_total", col); got != int64(n) {
		t.Errorf("columnar write bytes = %d, want the %d-byte body", got, n)
	}
	if w := reg.CounterValue("cube_xml_writes_total", col); w != 1 {
		t.Errorf("columnar writes = %d, want 1", w)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`cube_xml_write_bytes_total{format="columnar"} %d`, n); !strings.Contains(readAll(t, mresp), want) {
		t.Errorf("metrics exposition missing %q", want)
	}
}
