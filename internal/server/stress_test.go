package server

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cube/internal/core"
	"cube/internal/cubexml"
	"cube/internal/store"
)

// stressOp is one operator request of the stress mix: the /op/{op} path,
// the equivalent /expr node (operands spliced in for %s), how many of the
// two masters it takes, and the in-process result it must equal.
type stressOp struct {
	path string
	node string
	n    int
	want *core.Experiment
}

// TestConcurrentRoutesShareMasters drives all eleven operators through
// both /op/{op} and /expr, together with /view, /info and /report, from
// several goroutines over the same two cached masters, each operand sent
// inline and as digest:. The routes that receive the parse cache's shared
// masters must neither race (run with -race) nor change them: every result
// equals a single-threaded in-process evaluation.
func TestConcurrentRoutesShareMasters(t *testing.T) {
	a, b := buildExp("a", 0.25), buildExp("b", 0)
	docs := [][]byte{encodeExp(t, a), encodeExp(t, b)}
	// Evaluate from fresh parses of the bytes the server receives.
	x := make([]*core.Experiment, 2)
	for i, doc := range docs {
		var err error
		if x[i], err = cubexml.Read(bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	must := func(e *core.Experiment, err error) *core.Experiment {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ops := []stressOp{
		{"/op/difference", `{"op":"difference","args":[%s]}`, 2, must(core.Difference(x[0], x[1], nil))},
		{"/op/merge", `{"op":"merge","args":[%s]}`, 2, must(core.MergeAll(nil, x...))},
		{"/op/mean", `{"op":"mean","args":[%s]}`, 2, must(core.Mean(nil, x...))},
		{"/op/sum", `{"op":"sum","args":[%s]}`, 2, must(core.Sum(nil, x...))},
		{"/op/min", `{"op":"min","args":[%s]}`, 2, must(core.Min(nil, x...))},
		{"/op/max", `{"op":"max","args":[%s]}`, 2, must(core.Max(nil, x...))},
		{"/op/stddev", `{"op":"stddev","args":[%s]}`, 2, must(core.StdDev(nil, x...))},
		{"/op/flatten", `{"op":"flatten","args":[%s]}`, 1, must(core.Flatten(x[0]))},
		{"/op/extract?metric=Time/Wait", `{"op":"extract","metrics":["Time/Wait"],"args":[%s]}`, 1, must(core.ExtractMetrics(x[0], "Time/Wait"))},
		{"/op/prune?metric=Time&threshold=0.1", `{"op":"prune","metric":"Time","threshold":0.1,"args":[%s]}`, 1, must(core.Prune(x[0], "Time", 0.1))},
		{"/op/scale?factor=2", `{"op":"scale","factor":2,"args":[%s]}`, 1, must(core.Scale(x[0], 2, nil))},
	}

	srv, _ := newStoreServer(t, nil, store.Options{})
	digests := make([]string, 2)
	for i, doc := range docs {
		digests[i] = store.DigestOf(doc).String()
		resp := putExperiment(t, srv, digests[i], doc, "")
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT operand %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// parts returns the first n operands, inline or as digest references.
	parts := func(n int, byDigest bool) []operandPart {
		out := make([]operandPart, n)
		for i := range out {
			if byDigest {
				out[i].digest = digests[i]
			} else {
				out[i].literal = docs[i]
			}
		}
		return out
	}

	// The display routes answer text; the reference is each one's answer
	// from a second server, so this server's masters are untouched when
	// the concurrent phase starts.
	displays := []struct {
		path string
		n    int
	}{{"/view?metric=Time&mode=percent&top=3", 1}, {"/info", 2}, {"/report?metric=Wait", 1}}
	wantText := map[string]string{}
	ref := newTestServer(t)
	for _, d := range displays {
		body, status, err := sendParts(ref.URL+d.path, "", parts(d.n, false))
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", d.path, status, err, body)
		}
		wantText[d.path] = string(body)
	}

	type job func() error
	var jobs []job
	for _, d := range displays {
		d := d
		for _, byDigest := range []bool{false, true} {
			ps := parts(d.n, byDigest)
			jobs = append(jobs, func() error {
				body, status, err := sendParts(srv.URL+d.path, "", ps)
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("POST %s: status %d, %v: %s", d.path, status, err, body)
				}
				if string(body) != wantText[d.path] {
					return fmt.Errorf("POST %s: answer differs from the single-threaded one", d.path)
				}
				return nil
			})
		}
	}

	for _, op := range ops {
		op := op
		for _, byDigest := range []bool{false, true} {
			ps := parts(op.n, byDigest)
			jobs = append(jobs, func() error {
				body, status, err := sendParts(srv.URL+op.path, "", ps)
				return checkExperiment("POST "+op.path, body, status, err, op.want)
			})
			refs := make([]string, op.n)
			for i := range refs {
				refs[i] = fmt.Sprintf(`{"ref":"operand:%d"}`, i)
			}
			src := fmt.Sprintf(op.node, strings.Join(refs, ","))
			jobs = append(jobs, func() error {
				body, status, err := sendParts(srv.URL+"/expr", src, ps)
				return checkExperiment("POST /expr "+src, body, status, err, op.want)
			})
		}
	}
	// Each worker walks the mix from its own offset, so different routes
	// overlap on the same masters; the workers start together on the
	// display jobs, the first readers of the fresh masters.
	const workers, rounds = 6, 2
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds*len(jobs); i++ {
				if err := jobs[(i+w)%len(jobs)](); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// sendParts POSTs ordered operand parts, plus an "expr" field when src is
// not empty, and returns the response body and status.
func sendParts(url, src string, parts []operandPart) ([]byte, int, error) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if src != "" {
		mw.WriteField("expr", src)
	}
	for i, p := range parts {
		fw, err := mw.CreateFormFile("operand", fmt.Sprintf("op%d.cube", i))
		if err != nil {
			return nil, 0, err
		}
		if p.digest != "" {
			io.WriteString(fw, "digest:"+p.digest)
		} else {
			fw.Write(p.literal)
		}
	}
	mw.Close()
	resp, err := http.Post(url, mw.FormDataContentType(), &body)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func checkExperiment(what string, body []byte, status int, err error, want *core.Experiment) error {
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("%s: status %d, %v: %s", what, status, err, body)
	}
	got, err := cubexml.Read(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: response not a cube document: %v", what, err)
	}
	if !core.AlmostEqual(got, want, 1e-12) {
		return fmt.Errorf("%s: result differs from the in-process evaluation", what)
	}
	return nil
}
