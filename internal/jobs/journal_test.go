package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// memJournal is an in-memory jobs.Journal for Manager unit tests: appends
// accumulate, Replay streams them back, and failSubmit simulates a sink
// that cannot accept new work.
type memJournal struct {
	mu         sync.Mutex
	entries    []JournalEntry
	failSubmit bool
	syncs      int
}

func (m *memJournal) Append(e JournalEntry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failSubmit && e.Op == OpSubmit {
		return errors.New("memJournal: append refused")
	}
	e.Payload = append(json.RawMessage(nil), e.Payload...)
	e.Result = append(json.RawMessage(nil), e.Result...)
	m.entries = append(m.entries, e)
	return nil
}

func (m *memJournal) Replay(fn func(e JournalEntry) error) error {
	m.mu.Lock()
	snap := append([]JournalEntry(nil), m.entries...)
	m.mu.Unlock()
	for _, e := range snap {
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

func (m *memJournal) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncs++
	return nil
}

func (m *memJournal) ops() []JournalOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JournalOp, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.Op
	}
	return out
}

// TestSummariseNearestRank pins the nearest-rank percentile over the
// window sizes that matter: the floored index it replaced reported the P95
// of a 2-sample window as the minimum.
func TestSummariseNearestRank(t *testing.T) {
	// window builds 1ms, 2ms, ..., n ms (shuffled order must not matter,
	// so feed them reversed).
	window := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond
		}
		return s
	}
	cases := []struct {
		n          int
		p50, p95   float64 // expected sample values in ms
		mean, max  float64
		checkP95Is string
	}{
		{n: 1, p50: 1, p95: 1, mean: 1, max: 1},
		// The regression case: ceil(0.95·2) = 2 → the LARGER sample.
		{n: 2, p50: 1, p95: 2, mean: 1.5, max: 2},
		{n: 3, p50: 2, p95: 3, mean: 2, max: 3},
		{n: 20, p50: 10, p95: 19, mean: 10.5, max: 20},
		{n: 256, p50: 128, p95: 244, mean: 128.5, max: 256},
	}
	for _, c := range cases {
		got := Summarise(window(c.n))
		if got.Count != c.n {
			t.Errorf("n=%d: count = %d", c.n, got.Count)
		}
		if got.P50MS != c.p50 {
			t.Errorf("n=%d: P50 = %v ms, want %v", c.n, got.P50MS, c.p50)
		}
		if got.P95MS != c.p95 {
			t.Errorf("n=%d: P95 = %v ms, want %v (nearest rank ⌈0.95·%d⌉)", c.n, got.P95MS, c.p95, c.n)
		}
		if got.MaxMS != c.max {
			t.Errorf("n=%d: Max = %v ms, want %v", c.n, got.MaxMS, c.max)
		}
		if got.MeanMS != c.mean {
			t.Errorf("n=%d: Mean = %v ms, want %v", c.n, got.MeanMS, c.mean)
		}
	}
	if got := Summarise(nil); got != (LatencyStats{}) {
		t.Errorf("empty window must summarise to zero, got %+v", got)
	}
}

// TestJournalRecoversInterruptedJobs: a Manager dropped without Close
// leaves queued/running jobs in the journal; a second Manager over the
// same journal re-enqueues and re-executes them under their original ids —
// even when they outnumber the configured queue bound.
func TestJournalRecoversInterruptedJobs(t *testing.T) {
	jrn := &memJournal{}
	block := make(chan struct{})
	defer close(block)
	m1, err := New(Config{Workers: 1, QueueSize: 2, Journal: jrn}, routeExec{
		"stuck": func(ctx context.Context, p Payload, _ func(string)) (any, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil, errors.New("never finished")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 3)
	created := make([]time.Time, 3)
	for i := range ids {
		p := kind("stuck")
		p.CacheKey = fmt.Sprintf("clip-%d", i)
		if ids[i], err = m1.Submit(p); err != nil {
			t.Fatal(err)
		}
		st, err := m1.Status(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		created[i] = st.CreatedAt
		if i == 0 {
			// Let the worker take job 0 so the 2-slot queue holds 1 and 2.
			waitFor(t, "first job running", func() bool {
				st, _ := m1.Status(ids[0])
				return st.State == StateRunning
			})
		}
	}
	// Crash: m1 is abandoned without Close — no terminal records exist.

	// Recovery: 3 interrupted jobs against QueueSize 2 — replay must still
	// hold them all.
	var mu sync.Mutex
	ran := map[string]int{}
	m2, err := New(Config{Workers: 1, QueueSize: 2, Journal: jrn}, routeExec{
		"stuck": func(_ context.Context, p Payload, _ func(string)) (any, error) {
			mu.Lock()
			ran[p.CacheKey]++
			mu.Unlock()
			return "recovered:" + p.CacheKey, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	for i, id := range ids {
		waitFor(t, "recovered job done", func() bool {
			st, err := m2.Status(id)
			return err == nil && st.State == StateDone
		})
		val, err := m2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("recovered:clip-%d", i); val != want {
			t.Errorf("job %s result = %v, want %v", id, val, want)
		}
		st, _ := m2.Status(id)
		if !st.CreatedAt.Equal(created[i]) {
			t.Errorf("job %s created_at = %v, want original %v", id, st.CreatedAt, created[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for key, n := range ran {
		if n != 1 {
			t.Errorf("payload %s re-ran %d times, want exactly 1", key, n)
		}
	}
}

// TestJournalRestoresTerminalResults: finished jobs come back pollable
// with their original timestamps and are NOT re-executed; the restored
// result is the journaled JSON document.
func TestJournalRestoresTerminalResults(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	jrn := &memJournal{}
	m1, err := New(Config{Workers: 1, QueueSize: 4, Clock: clk.Now, Journal: jrn}, routeExec{
		"ok":   func(context.Context, Payload, func(string)) (any, error) { return map[string]int{"score": 7}, nil },
		"boom": func(context.Context, Payload, func(string)) (any, error) { return nil, errors.New("ga diverged") },
	})
	if err != nil {
		t.Fatal(err)
	}
	okID, err := m1.Submit(kind("ok"))
	if err != nil {
		t.Fatal(err)
	}
	boomID, err := m1.Submit(kind("boom"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	okSt, _ := m1.Status(okID)
	boomSt, _ := m1.Status(boomID)

	m2, err := New(Config{Workers: 1, QueueSize: 4, Clock: clk.Now, Journal: jrn}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) {
			t.Error("restored done job re-ran")
			return nil, nil
		},
		"boom": func(context.Context, Payload, func(string)) (any, error) {
			t.Error("restored failed job re-ran")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())

	val, err := m2.Result(okID)
	if err != nil {
		t.Fatal(err)
	}
	doc, ok := val.(*Document)
	if !ok {
		t.Fatalf("restored result is %T, want the journaled JSON document", val)
	}
	if string(doc.Compact()) != `{"score":7}` {
		t.Errorf("restored result = %s", doc.Compact())
	}
	st, err := m2.Status(okID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.CreatedAt.Equal(okSt.CreatedAt) ||
		st.StartedAt == nil || !st.StartedAt.Equal(*okSt.StartedAt) ||
		st.FinishedAt == nil || !st.FinishedAt.Equal(*okSt.FinishedAt) {
		t.Errorf("restored status %+v, want original %+v", st, okSt)
	}

	if _, err := m2.Result(boomID); err == nil || err.Error() != "ga diverged" {
		t.Errorf("restored failure = %v, want the original job error", err)
	}
	if st, _ := m2.Status(boomID); st.Err != boomSt.Err || st.State != StateFailed {
		t.Errorf("restored failed status %+v, want %+v", st, boomSt)
	}

	mt := m2.Metrics()
	if mt.Submitted != 2 || mt.Completed != 1 || mt.Failed != 1 {
		t.Errorf("restored counters: %+v", mt)
	}
}

// TestJournalSkipsEvictedRecords: a TTL-evicted job writes an evict record
// and never comes back on replay.
func TestJournalSkipsEvictedRecords(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	jrn := &memJournal{}
	m1, err := New(Config{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, Clock: clk.Now, Journal: jrn}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) { return 1, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(kind("ok"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		st, _ := m1.Status(id)
		return st.State == StateDone
	})
	clk.Advance(2 * time.Minute)
	if _, err := m1.Status(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job not evicted: %v", err)
	}
	_ = m1.Close(context.Background())

	ops := jrn.ops()
	if ops[len(ops)-1] != OpEvict {
		t.Fatalf("journal ops %v must end in evict", ops)
	}
	m2, err := New(Config{Workers: 1, QueueSize: 4, ResultTTL: time.Minute, Clock: clk.Now, Journal: jrn}, routeExec{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	if _, err := m2.Status(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("evicted job resurrected by replay: %v", err)
	}
	if n := len(m2.Jobs(JobFilter{})); n != 0 {
		t.Errorf("listing shows %d jobs after eviction replay", n)
	}
}

// TestJournalSubmitAppendFailureRejects: when the journal cannot record a
// submission, the submission fails and the job never executes — accepted
// work is exactly the journaled work.
func TestJournalSubmitAppendFailureRejects(t *testing.T) {
	jrn := &memJournal{failSubmit: true}
	ran := make(chan struct{}, 1)
	m, err := New(Config{Workers: 1, QueueSize: 4, Journal: jrn}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) {
			ran <- struct{}{}
			return 1, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	id, err := m.Submit(kind("ok"))
	if err == nil {
		t.Fatalf("submit must fail when the journal refuses the record (id=%s)", id)
	}
	select {
	case <-ran:
		t.Error("unjournaled job executed anyway")
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.Metrics().Submitted; got != 0 {
		t.Errorf("submitted counter = %d for a rejected submission", got)
	}
}

// TestManagerJobsListing: newest-first order, state filter, limit.
func TestManagerJobsListing(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	block := make(chan struct{})
	m, err := New(Config{Workers: 1, QueueSize: 8, Clock: clk.Now}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) { return 1, nil },
		"stuck": func(ctx context.Context, _ Payload, _ func(string)) (any, error) {
			<-block
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		m.Close(context.Background())
	}()

	// One job per tick: done, done, then a stuck one occupying the worker.
	var ids []string
	for _, k := range []string{"ok", "ok"} {
		id, err := m.Submit(kind(k))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "job done", func() bool {
			st, _ := m.Status(id)
			return st.State == StateDone
		})
		ids = append(ids, id)
		clk.Advance(time.Second)
	}
	stuckID, err := m.Submit(kind("stuck"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stuck job running", func() bool {
		st, _ := m.Status(stuckID)
		return st.State == StateRunning
	})

	all := m.Jobs(JobFilter{})
	if len(all) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(all))
	}
	if all[0].ID != stuckID || all[2].ID != ids[0] {
		t.Errorf("listing not newest-first: %v", []string{all[0].ID, all[1].ID, all[2].ID})
	}
	done := m.Jobs(JobFilter{State: StateDone})
	if len(done) != 2 {
		t.Errorf("state filter kept %d jobs, want 2", len(done))
	}
	if lim := m.Jobs(JobFilter{Limit: 1}); len(lim) != 1 || lim[0].ID != stuckID {
		t.Errorf("limit 1 = %+v, want just the newest", lim)
	}
}

// TestJournalHardCancelLeavesJobsInterrupted: jobs killed by the
// manager's own shutdown cancel must NOT be journaled as failed — a
// restart over the journal re-runs them, exactly like after a crash.
func TestJournalHardCancelLeavesJobsInterrupted(t *testing.T) {
	jrn := &memJournal{}
	m1, err := New(Config{Workers: 1, QueueSize: 2, Journal: jrn}, routeExec{
		"stuck": func(ctx context.Context, _ Payload, _ func(string)) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(kind("stuck"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		st, _ := m1.Status(id)
		return st.State == StateRunning
	})
	// Hard cancel: the drain budget is already exhausted.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = m1.Close(ctx)
	// In-process the job reports failed (pre-journal behaviour); Close
	// returns on the expired ctx before the cancelled executor's
	// bookkeeping lands, so poll briefly.
	waitFor(t, "hard-cancelled job failed in-process", func() bool {
		st, _ := m1.Status(id)
		return st.State == StateFailed
	})
	// ...but the journal holds no terminal record, so a restart re-runs it.
	for _, op := range jrn.ops() {
		if op == OpFailed || op == OpDone {
			t.Fatalf("shutdown cancel journaled a terminal record: %v", jrn.ops())
		}
	}
	m2, err := New(Config{Workers: 1, QueueSize: 2, Journal: jrn}, routeExec{
		"stuck": func(context.Context, Payload, func(string)) (any, error) { return "rerun", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	waitFor(t, "job re-run after restart", func() bool {
		st, err := m2.Status(id)
		return err == nil && st.State == StateDone
	})
	if val, _ := m2.Result(id); val != "rerun" {
		t.Errorf("re-run result = %v", val)
	}
}
