package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cube"
	"cube/internal/cubexml"
)

// typeRecorder records the response Content-Type of every operator and
// expression call; with xmlOnly it strips Accept first, standing in for a
// server that only speaks XML.
type typeRecorder struct {
	mu      sync.Mutex
	types   []string
	xmlOnly bool
	h       http.Handler
}

func (tr *typeRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tr.xmlOnly {
		r.Header.Del("Accept")
	}
	tr.h.ServeHTTP(w, r)
	if r.Method == http.MethodPost {
		tr.mu.Lock()
		tr.types = append(tr.types, w.Header().Get("Content-Type"))
		tr.mu.Unlock()
	}
}

// TestClientNegotiatesColumnar: operator, digest-operator and expression
// calls ask for the columnar body and decode it to the local result at
// eps 0; against a server that answers XML the same calls still decode.
func TestClientNegotiatesColumnar(t *testing.T) {
	a, b := testExp("a", 0.25), testExp("b", 0)
	d, _ := cube.Difference(a, b, nil)
	sc, _ := cube.Scale(d, 2, nil)
	for _, xmlOnly := range []bool{false, true} {
		tr := &typeRecorder{xmlOnly: xmlOnly, h: storeHandler(t)}
		srv := httptest.NewServer(tr)
		c := fastClient(srv.URL)
		ctx := context.Background()
		da, err := c.Put(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := c.Put(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]*cube.Experiment{}
		got["Difference"], err = c.Difference(ctx, a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		got["DifferenceByDigest"], err = c.DifferenceByDigest(ctx, da, db, nil)
		if err != nil {
			t.Fatal(err)
		}
		got["Expr"], err = c.Expr(ctx, DifferenceExpr(DigestRef(da), DigestRef(db)), nil)
		if err != nil {
			t.Fatal(err)
		}
		outs, _, err := c.ExprMulti(ctx, []*ExprNode{DifferenceExpr(OperandRef(0), OperandRef(1)),
			ScaleExpr(DifferenceExpr(OperandRef(0), OperandRef(1)), 2)}, nil, a, b)
		if err != nil || len(outs) != 2 {
			t.Fatalf("ExprMulti: %d results, %v", len(outs), err)
		}
		got["ExprMulti root 0"] = outs[0]
		if !cube.AlmostEqual(outs[1], sc, 0) {
			t.Errorf("xmlOnly %v: ExprMulti root 1 differs from the local scale", xmlOnly)
		}
		for name, e := range got {
			if !cube.AlmostEqual(e, d, 0) {
				t.Errorf("xmlOnly %v: %s differs from the local difference", xmlOnly, name)
			}
		}
		srv.Close()
		want := cubexml.ColumnarType
		if xmlOnly {
			want = "application/xml; charset=utf-8"
		}
		for i, ct := range tr.types {
			if i == 3 {
				continue // the multi-root answer is multipart/mixed
			}
			if ct != want {
				t.Errorf("xmlOnly %v: response %d typed %q, want %q", xmlOnly, i, ct, want)
			}
		}
	}
}

// TestClientDecodesByBody: the client tells the encodings apart by the
// body, so XML typed as the columnar body — a proxy that rewrote the body
// but not its headers — still decodes.
func TestClientDecodesByBody(t *testing.T) {
	want := testExp("a", 0.25)
	var doc bytes.Buffer
	if err := cube.Write(&doc, want); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", cubexml.ColumnarType)
		w.Write(doc.Bytes())
	}))
	defer srv.Close()
	got, err := fastClient(srv.URL).Mean(context.Background(), nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !cube.AlmostEqual(got, want, 0) {
		t.Error("decoded result differs from the XML sent")
	}
}
