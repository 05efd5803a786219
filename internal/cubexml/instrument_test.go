package cubexml

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"cube/internal/core"
	"cube/internal/obs"
)

func buildTiny(t *testing.T) *core.Experiment {
	t.Helper()
	e := core.New("tiny")
	m := e.NewMetric("Time", core.Seconds, "")
	root := e.NewCallRoot(e.NewCallSite("", 0, e.NewRegion("main", "app", 0, 0)))
	for _, th := range e.SingleThreadedSystem("mach", 1, 2) {
		e.SetSeverity(m, root, th, 1)
	}
	return e
}

func TestInstrumentCountsReadsAndWrites(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	defer obs.SetRegistry(nil)

	var buf bytes.Buffer
	if err := Write(&buf, buildTiny(t)); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("cube_xml_writes_total"); got != 1 {
		t.Errorf("writes_total = %d, want 1", got)
	}
	if got := reg.CounterValue("cube_xml_write_bytes_total"); got != int64(buf.Len()) {
		t.Errorf("write_bytes_total = %d, want %d", got, buf.Len())
	}

	doc := buf.Bytes()
	if _, err := Read(bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("cube_xml_reads_total"); got != 1 {
		t.Errorf("reads_total = %d, want 1", got)
	}
	if got := reg.CounterValue("cube_xml_read_bytes_total"); got != int64(len(doc)) {
		t.Errorf("read_bytes_total = %d, want %d", got, len(doc))
	}
	if got := reg.CounterValue("cube_xml_read_elements_total"); got <= 0 {
		t.Errorf("read_elements_total = %d, want > 0", got)
	}
	if got := reg.CounterValue("cube_xml_read_errors_total"); got != 0 {
		t.Errorf("read_errors_total = %d, want 0", got)
	}

	// A malformed document counts as an error, not a read.
	if _, err := Read(strings.NewReader("<cube><unclosed>")); err == nil {
		t.Fatal("malformed document parsed")
	}
	if got := reg.CounterValue("cube_xml_read_errors_total"); got == 0 {
		t.Errorf("read_errors_total = 0 after malformed read")
	}
}

func TestInstrumentCountsLimitRejections(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	defer obs.SetRegistry(nil)

	deep := strings.Repeat("<a>", 60) + strings.Repeat("</a>", 60)
	if _, err := ReadLimited(strings.NewReader(deep), Limits{MaxDepth: 10}); err == nil {
		t.Fatal("depth bomb accepted")
	}
	if got := reg.CounterValue("cube_xml_limit_rejections_total"); got != 1 {
		t.Errorf("limit_rejections_total = %d, want 1", got)
	}
}

func TestInstrumentDisabledIsFree(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetRegistry(nil)
	var buf bytes.Buffer
	if err := Write(&buf, buildTiny(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
	if got := reg.CounterValue("cube_xml_reads_total"); got != 0 {
		t.Errorf("disabled instrumentation recorded reads: %d", got)
	}
}

// TestReadEnginesCountAlike holds the fast and the legacy reader to the
// same parse-stage counts: both record through one declaration.
func TestReadEnginesCountAlike(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, buildTiny(t)); err != nil {
		t.Fatal(err)
	}
	deep := strings.Repeat("<a>", 60) + strings.Repeat("</a>", 60)
	counts := func(engine ReadEngine) map[string]int64 {
		reg := obs.NewRegistry()
		obs.SetRegistry(reg)
		defer obs.SetRegistry(nil)
		for _, lim := range []Limits{{}, DefaultLimits, {MaxDepth: 10}} {
			ReadWith(context.Background(), bytes.NewReader(buf.Bytes()), ReadOptions{Limits: lim, Engine: engine})
			ReadWith(context.Background(), strings.NewReader(deep), ReadOptions{Limits: lim, Engine: engine})
		}
		out := map[string]int64{}
		for _, c := range reg.Snapshot().Counters {
			out[c.Name] = c.Value
		}
		return out
	}
	fast, legacy := counts(EngineAuto), counts(EngineLegacy)
	if fmt.Sprint(fast) != fmt.Sprint(legacy) {
		t.Errorf("fast reader counts %v, legacy reader %v", fast, legacy)
	}
}
