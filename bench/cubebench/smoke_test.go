package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload traced for one second against
// a real cube-server built from this checkout.
func TestSmokeEveryWorkload(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain to build cube-server")
	}
	ctx := context.Background()
	cfg, err := configure(ctx, "../..", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.warmup = 500 * time.Millisecond
	cfg.minOps = 1
	var runs []*runResult
	for _, w := range workloads {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.errs)
		}
		for _, d := range append(append([]metricDef(nil), e2eDefs...), layerDefs...) {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("%s: no %s", w.name, d.name)
			}
		}
		runs = append(runs, res)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTraceFile(path, runs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name, Ph string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			seen[strings.SplitN(ev.Name, ".", 2)[0]] = true
		}
	}
	for _, layer := range []string{"client", "cubexml", "store", "expr", "core", "display"} {
		if !seen[layer] {
			t.Errorf("trace has no %s.* span", layer)
		}
	}
}
