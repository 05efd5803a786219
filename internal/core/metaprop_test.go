package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// These tests pin down the contract of the metadata fast paths: an
// integration served by the identity path or the integration memo must be
// observationally identical to a cold full merge — for every operator,
// both engines, and every digest relation between the operands (same
// binary, partially overlapping, fully disjoint). The fast path may only
// change how fast the answer arrives, never the answer.

// disjointRename pushes every name of e into a private suffix namespace so
// its metadata shares nothing with another random experiment: metrics,
// regions (and through them call sites and call nodes), and machines all
// become unique to e.
func disjointRename(e *Experiment) {
	for _, m := range e.Metrics() {
		m.Name += "#d"
	}
	for _, rg := range e.regions {
		rg.Name += "#d"
	}
	for _, mach := range e.machines {
		mach.Name += "#d"
	}
	e.Invalidate()
}

// metaPropPairs builds the three interesting operand relations from one
// random stream: digest-identical (clone), overlapping (independent draws
// from shared name pools), and metadata-disjoint.
func metaPropPairs(r *rand.Rand) map[string][2]*Experiment {
	a := randomExperiment(r, "a")
	b := randomExperiment(r, "b")
	d := randomExperiment(r, "d")
	disjointRename(d)
	return map[string][2]*Experiment{
		"same-binary": {a, a.Clone()},
		"overlapping": {a, b},
		"disjoint":    {a, d},
	}
}

// TestMetaFastpathInvisible: for random operand pairs in all three digest
// relations, every operator's result is fingerprint-identical whether the
// metadata fast paths are enabled (first call exercising the memo miss,
// second call the memo hit or identity path) or disabled entirely.
func TestMetaFastpathInvisible(t *testing.T) {
	defer metaFastpathOff.Store(false)
	defer SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)

	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		for mode, pair := range metaPropPairs(r) {
			a, b := pair[0], pair[1]
			for _, eng := range []string{"kernel", "oracle"} {
				for name := range arithmeticOps {
					op := func() (*Experiment, error) { return runEngine(eng, name, a, b) }
					metaFastpathOff.Store(true)
					want, err := op()
					if err != nil {
						t.Fatalf("seed %d %s engine %s %s (cold): %v", seed, mode, eng, name, err)
					}
					metaFastpathOff.Store(false)
					SetIntegrateMemoBudget(DefaultIntegrateMemoBytes) // start from an empty memo
					for pass, label := range []string{"first (memo miss)", "second (memo hit)"} {
						got, err := op()
						if err != nil {
							t.Fatalf("seed %d %s engine %s %s %s: %v", seed, mode, eng, name, label, err)
						}
						if got.Fingerprint() != want.Fingerprint() {
							t.Fatalf("seed %d %s engine %s %s: fast-path pass %d result differs from cold merge",
								seed, mode, eng, name, pass)
						}
					}
				}
			}
		}
	}
}

// TestIntegrateFastpathKinds asserts which path each operand relation
// actually takes, so the invisibility property above is known to cover
// identity, memo-miss, and memo-hit executions rather than silently
// exercising the full merge three times.
func TestIntegrateFastpathKinds(t *testing.T) {
	defer SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)
	SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)

	r := rand.New(rand.NewSource(42))
	a := randomExperiment(r, "a")
	b := a.Clone()
	c := randomExperiment(r, "c")
	disjointRename(c)
	if a.MetaDigest() == c.MetaDigest() {
		t.Fatal("disjoint rename left digests equal")
	}

	in, err := integrate(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if in.fastpath != fastpathIdentity {
		t.Fatalf("clone pair took %q, want %q", in.fastpathLabel(), fastpathIdentity)
	}

	in, err = integrate(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if in.fastpath != fastpathMiss {
		t.Fatalf("first mixed pair took %q, want %q", in.fastpathLabel(), fastpathMiss)
	}
	in, err = integrate(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if in.fastpath != fastpathMemo {
		t.Fatalf("second mixed pair took %q, want %q", in.fastpathLabel(), fastpathMemo)
	}

	// Single-operand integrations never consult digests or the memo.
	in, err = integrate(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if in.fastpath != "" || in.fastpathLabel() != fastpathFull {
		t.Fatalf("single operand took %q, want full merge", in.fastpathLabel())
	}

	// A disabled memo (budget <= 0) leaves mixed pairs on the full merge.
	SetIntegrateMemoBudget(0)
	in, err = integrate(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	if in.fastpath != "" {
		t.Fatalf("mixed pair with memo disabled took %q, want full merge", in.fastpathLabel())
	}
}

// TestMetaFastpathConcurrent hammers the identity path and the shared
// memo from many goroutines over the same pre-compacted operands. Run
// under -race this checks that digest caching, memo get/put, and the
// shared remap tables of memoised integrations are free of data races,
// and that every concurrent result is still correct.
func TestMetaFastpathConcurrent(t *testing.T) {
	defer SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)
	SetIntegrateMemoBudget(DefaultIntegrateMemoBytes)

	r := rand.New(rand.NewSource(7))
	a := randomExperiment(r, "a")
	b := a.Clone()
	c := randomExperiment(r, "c")
	// Pre-compact and pre-warm so concurrent operator calls only ever
	// read the operands: the columnar lowering and the metadata digest
	// are both materialised before the first goroutine starts.
	for _, x := range []*Experiment{a, b, c} {
		x.CompactSeverities()
		x.MetaDigest()
	}

	metaFastpathOff.Store(true)
	wantDiff, err := Difference(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := Sum(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	metaFastpathOff.Store(false)
	wantDiffFP, wantSumFP := wantDiff.Fingerprint(), wantSum.Fingerprint()

	const goroutines, rounds = 8, 6
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d, err := Difference(a, b, nil)
				if err != nil {
					errs <- err
					return
				}
				if d.Fingerprint() != wantDiffFP {
					errs <- fmt.Errorf("concurrent identity-path difference diverged")
					return
				}
				s, err := Sum(nil, a, c)
				if err != nil {
					errs <- err
					return
				}
				if s.Fingerprint() != wantSumFP {
					errs <- fmt.Errorf("concurrent memoised sum diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
