package lru

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cube/internal/obs"
)

// newTest returns a cache and the registry it reports to, installed as
// the process-wide registry for the rest of the test.
func newTest(t *testing.T, budget int64) (*Cache[string, int], *obs.Registry) {
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(nil) })
	return New[string, int](budget, "test_cache"), reg
}

func TestEvictionOrderAndBudget(t *testing.T) {
	c, reg := newTest(t, 30)
	c.Add("a", 1, 10)
	c.Add("b", 2, 10)
	c.Add("c", 3, 10)
	if _, ok := c.Get("a"); !ok { // a becomes most recently used; b is now last
		t.Fatal("a missing before any eviction")
	}
	c.Add("d", 4, 15) // needs 15 of 30: evicts b, then c
	for key, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true} {
		if _, ok := c.Get(key); ok != want {
			t.Errorf("%s resident = %v, want %v", key, ok, want)
		}
	}
	if c.Len() != 2 || c.Bytes() != 25 {
		t.Errorf("Len %d Bytes %d, want 2 and 25", c.Len(), c.Bytes())
	}
	if got := reg.CounterValue("test_cache_evictions_total"); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
	if got := reg.Gauge("test_cache_bytes").Value(); got != 25 {
		t.Errorf("bytes gauge = %v, want 25", got)
	}
	if v, _ := c.Get("d"); v != 4 {
		t.Errorf("Get(d) = %d, want the stored 4", v)
	}
}

func TestOversizeNeverCached(t *testing.T) {
	c, reg := newTest(t, 10)
	c.Add("small", 1, 10)
	c.Add("big", 2, 11)
	if _, ok := c.Get("big"); ok {
		t.Error("an entry larger than the budget was cached")
	}
	if _, ok := c.Get("small"); !ok {
		t.Error("an oversize Add evicted a resident entry")
	}
	calls := 0
	for i := 0; i < 2; i++ {
		_, outcome, err := c.Do("big", func() (int, int64, error) { calls++; return 2, 11, nil })
		if err != nil || outcome != Miss {
			t.Fatalf("Do = %v, %v; want a miss", outcome, err)
		}
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (oversize values are not cached)", calls)
	}
	if got := reg.CounterValue("test_cache_evictions_total"); got != 0 {
		t.Errorf("evictions = %d, want 0", got)
	}
}

func TestAddPresentKeyIsNoop(t *testing.T) {
	c, _ := newTest(t, 100)
	c.Add("k", 1, 10)
	c.Add("k", 2, 50)
	if v, _ := c.Get("k"); v != 1 {
		t.Errorf("Get = %d, want the first value 1", v)
	}
	if c.Len() != 1 || c.Bytes() != 10 {
		t.Errorf("Len %d Bytes %d, want 1 and 10", c.Len(), c.Bytes())
	}
}

func TestZeroBudgetStillSharesFlights(t *testing.T) {
	c, _ := newTest(t, 0)
	c.Add("k", 1, 1)
	if c.Len() != 0 {
		t.Fatal("a zero budget cached an entry")
	}
	v, outcome, err := c.Do("k", func() (int, int64, error) { return 7, 1, nil })
	if v != 7 || outcome != Miss || err != nil {
		t.Errorf("Do = %d, %v, %v; want 7, miss, nil", v, outcome, err)
	}
}

// doConcurrently holds one flight open on key, starts n waiters on it,
// then lets the flight finish with (val, err). It returns the leader's
// result, each waiter's result, and how often fn ran.
func doConcurrently(t *testing.T, c *Cache[string, int], key string, n, val int, err error) (leader result, waiters []result, runs int64) {
	t.Helper()
	var ran atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, int64, error) {
		if ran.Add(1) == 1 {
			close(started)
			<-release
		}
		return val, 1, err
	}
	done := make(chan result)
	go func() {
		v, o, e := c.Do(key, fn)
		done <- result{v, o, e}
	}()
	<-started
	out := make(chan result, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			v, o, e := c.Do(key, fn)
			out <- result{v, o, e}
		}()
	}
	// Every waiter must have joined the flight before it finishes.
	for joined := 0; joined < n; runtime.Gosched() {
		c.mu.Lock()
		joined = c.flights[key].waiters
		c.mu.Unlock()
	}
	close(release)
	leader = <-done
	wg.Wait()
	close(out)
	for r := range out {
		waiters = append(waiters, r)
	}
	return leader, waiters, ran.Load()
}

type result struct {
	val     int
	outcome Outcome
	err     error
}

func TestDoSharesValue(t *testing.T) {
	c, _ := newTest(t, 100)
	leader, waiters, runs := doConcurrently(t, c, "k", 8, 42, nil)
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1", runs)
	}
	if leader != (result{42, Miss, nil}) {
		t.Errorf("leader = %+v, want 42 miss", leader)
	}
	for _, w := range waiters {
		if w != (result{42, Wait, nil}) {
			t.Errorf("waiter = %+v, want 42 wait", w)
		}
	}
	if v, outcome, _ := c.Do("k", nil); v != 42 || outcome != Hit {
		t.Errorf("after the flight: Do = %d, %v; want a hit on 42", v, outcome)
	}
}

func TestDoSharesErrorAndNeverCachesIt(t *testing.T) {
	c, reg := newTest(t, 100)
	boom := errors.New("boom")
	leader, waiters, runs := doConcurrently(t, c, "k", 8, 0, boom)
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1", runs)
	}
	if !errors.Is(leader.err, boom) {
		t.Errorf("leader err = %v, want %v", leader.err, boom)
	}
	for _, w := range waiters {
		if w.outcome != Wait || !errors.Is(w.err, boom) {
			t.Errorf("waiter = %+v, want the shared error", w)
		}
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("an error was cached: Len %d Bytes %d", c.Len(), c.Bytes())
	}
	if g := reg.Snapshot().Gauges; len(g) != 0 {
		t.Errorf("gauges set although nothing was cached: %+v", g)
	}
	v, outcome, err := c.Do("k", func() (int, int64, error) { return 5, 1, nil })
	if v != 5 || outcome != Miss || err != nil {
		t.Errorf("retry after error: Do = %d, %v, %v; want 5, miss, nil", v, outcome, err)
	}
}

func TestRegistryReadAtEventTime(t *testing.T) {
	c := New[string, int](10, "late")
	c.Add("a", 1, 10) // no registry yet: not reported, no panic
	reg := obs.NewRegistry()
	obs.SetRegistry(reg)
	t.Cleanup(func() { obs.SetRegistry(nil) })
	c.Add("b", 2, 10)
	if got := reg.CounterValue("late_evictions_total"); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge("late_bytes").Value(); got != 10 {
		t.Errorf("bytes gauge = %v, want 10", got)
	}
}
