package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"cube/internal/obs"
)

// Profile wires the shared observability flags into a command-line tool:
//
//	-cpuprofile file   write a CPU profile (go tool pprof format)
//	-memprofile file   write a heap profile on exit
//	-stats             dump operator/codec metrics to stderr on exit
//	-trace file        write span traces as Chrome trace-event JSON on exit
//	-events file       write wide events as NDJSON on exit (- for stderr)
//
// Register the flags with NewProfile before flag.Parse, then call Start
// after it and the returned stop function on the success path. -stats
// points the stage table's registry seam (obs.SetRegistry) at obs.Default, so the
// dump shows exactly what the algebra did: operator invocations and wall
// time, severity cells produced, zero-fill expansion, and XML bytes
// parsed/written. -trace installs a process-wide always-sample tracer and
// exports every operator invocation's span tree (integrate, per-operand
// lower, per-shard kernel, materialize) to the file; load it into
// Perfetto or chrome://tracing.
type Profile struct {
	cpu, mem, trace *string
	events          *string
	stats           *bool
	cpuFile         *os.File
	tracer          *obs.Tracer
	sink            *obs.EventSink
	event           *obs.Event
	tool            string
}

// NewProfile registers the profiling flags on fs (flag.CommandLine when
// nil) and returns the handle to Start them with.
func NewProfile(fs *flag.FlagSet) *Profile {
	if fs == nil {
		fs = flag.CommandLine
	}
	p := &Profile{}
	p.cpu = fs.String("cpuprofile", "", "write a CPU profile to `file`")
	p.mem = fs.String("memprofile", "", "write a heap profile to `file` on exit")
	p.stats = fs.Bool("stats", false, "dump operator/codec metrics to stderr on exit")
	p.trace = fs.String("trace", "", "write span traces as Chrome trace-event JSON to `file`")
	p.events = fs.String("events", "", "write wide events as NDJSON to `file` on exit (- for stderr)")
	return p
}

// Event returns the invocation's wide event — nil (every method a no-op)
// unless -events is set. Tools hand it to core.Options.Event so the
// kernel layer attributes shards, tuples, cells, and compute time to the
// run.
func (p *Profile) Event() *obs.Event { return p.event }

// Start begins profiling according to the parsed flags. Call it after
// flag.Parse; the returned stop function finishes the CPU profile, writes
// the heap profile, and prints the -stats dump. Error exits via Fatal skip
// stop, which is fine: partial profiles of failed runs mislead more than
// they help.
func (p *Profile) Start(tool string) (stop func(), err error) {
	p.tool = tool
	if *p.stats {
		obs.SetRegistry(obs.Default)
	}
	if *p.trace != "" {
		// Sample everything: a CLI run traces a handful of operator
		// invocations, so there is nothing to shed. The ring must hold
		// them all — scripts may chain many operations per process.
		p.tracer = obs.NewTracer(obs.TracerOptions{SampleRate: 1, RingSize: 1024})
		obs.SetTracer(p.tracer)
	}
	if *p.events != "" {
		// The process-wide sink catches store/client events too; the
		// invocation itself is one kind "cli" event, routed by tool name.
		p.sink = obs.NewEventSink(obs.DefaultEventRingSize)
		obs.SetEventSink(p.sink)
		p.event = p.sink.NewEvent("cli", tool)
	}
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		p.cpuFile = f
	}
	return p.stop, nil
}

func (p *Profile) stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing CPU profile: %v\n", p.tool, err)
		}
		p.cpuFile = nil
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.tool, err)
		} else {
			runtime.GC() // materialise final heap state before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing heap profile: %v\n", p.tool, err)
			}
			f.Close()
		}
	}
	if *p.stats {
		fmt.Fprintf(os.Stderr, "--- %s metrics ---\n", p.tool)
		if err := obs.Default.WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing metrics: %v\n", p.tool, err)
		}
	}
	if p.sink != nil {
		obs.SetEventSink(nil)
		p.event.Emit()
		w := os.Stderr
		if *p.events != "-" {
			f, err := os.Create(*p.events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", p.tool, err)
				w = nil
			} else {
				defer f.Close()
				w = f
			}
		}
		if w != nil {
			if _, err := p.sink.WriteNDJSON(w, obs.EventFilter{}); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing events: %v\n", p.tool, err)
			}
		}
	}
	if p.tracer != nil {
		obs.SetTracer(nil)
		traces := p.tracer.Traces() // newest first; export chronologically
		for i, j := 0, len(traces)-1; i < j; i, j = i+1, j-1 {
			traces[i], traces[j] = traces[j], traces[i]
		}
		f, err := os.Create(*p.trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.tool, err)
			return
		}
		if err := obs.WriteChromeTrace(f, traces...); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing trace: %v\n", p.tool, err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing trace: %v\n", p.tool, err)
		}
	}
}
