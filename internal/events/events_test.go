package events

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collect drains n events from the subscription with a deadline.
func collect(t *testing.T, sub *Subscription, n int) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out := make([]Event, 0, n)
	for len(out) < n {
		e, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d events: %v", len(out), err)
		}
		out = append(out, e)
	}
	return out
}

func TestPerJobSequenceMonotonic(t *testing.T) {
	h := NewHub(Config{})
	sub, err := h.Subscribe("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(Event{Type: TypeQueued, JobID: "a", State: "queued"})
	h.Publish(Event{Type: TypeQueued, JobID: "b", State: "queued"}) // other job: own counter
	h.Publish(Event{Type: TypeRunning, JobID: "a", State: "running"})
	h.Publish(Event{Type: TypeStage, JobID: "a", State: "running", Stage: "pose"})

	got := collect(t, sub, 3)
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.JobID != "a" {
			t.Errorf("event %d leaked from job %s", i, e.JobID)
		}
	}
	if got[2].Stage != "pose" || got[2].Type != TypeStage {
		t.Errorf("stage event: %+v", got[2])
	}
}

func TestResumeReplaysHistoryAfterSeq(t *testing.T) {
	h := NewHub(Config{})
	for i := 0; i < 5; i++ {
		h.Publish(Event{Type: TypeStage, JobID: "a", State: "running", Stage: fmt.Sprintf("s%d", i)})
	}
	sub, err := h.Subscribe("a", 2)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, 3)
	for i, e := range got {
		if want := uint64(3 + i); e.Seq != want {
			t.Errorf("replayed event %d: seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestResumePastRetainedWindowSnapshots(t *testing.T) {
	h := NewHub(Config{HistoryPerJob: 2, SubscriberBuffer: 8, MaxSubscribers: 8})
	for i := 0; i < 6; i++ {
		h.Publish(Event{Type: TypeStage, JobID: "a", State: "running", Stage: fmt.Sprintf("s%d", i)})
	}
	// History retains seqs 5..6 only; resuming after 1 must snapshot.
	sub, err := h.Subscribe("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, 1)
	if got[0].Type != TypeSnapshot || got[0].Seq != 6 || got[0].Stage != "s5" {
		t.Errorf("expected snapshot at seq 6, got %+v", got[0])
	}
}

// TestResumeAtTerminalSeqClosesImmediately: an EventSource reconnecting
// with the terminal event's own sequence number (the server closed its
// completed stream) must get the terminal snapshot back — not an idle
// subscription pinning a stream slot until eviction.
func TestResumeAtTerminalSeqClosesImmediately(t *testing.T) {
	h := NewHub(Config{})
	h.Publish(Event{Type: TypeQueued, JobID: "a", State: "queued"})
	h.Publish(Event{Type: TypeDone, JobID: "a", State: "done"})
	sub, err := h.Subscribe("a", 2) // exactly the terminal seq
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, 1)
	if got[0].Type != TypeSnapshot || !got[0].Terminal() || got[0].Seq != 2 {
		t.Fatalf("terminal resume: %+v", got[0])
	}
	// A live (non-terminal) job caught up exactly still gets deltas only.
	h.Publish(Event{Type: TypeRunning, JobID: "b", State: "running"})
	sub2, err := h.Subscribe("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if e, err := sub2.Next(ctx); err == nil {
		t.Fatalf("live caught-up subscription delivered %+v, want silence", e)
	}
}

func TestResumeAfterSeqRegressionSnapshots(t *testing.T) {
	h := NewHub(Config{})
	h.Publish(Event{Type: TypeDone, JobID: "a", State: "done"})
	// The client saw seq 9 from a previous process; this hub is at 1.
	sub, err := h.Subscribe("a", 9)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sub, 1)
	if got[0].Type != TypeSnapshot || got[0].State != "done" {
		t.Errorf("expected terminal snapshot, got %+v", got[0])
	}
	if !got[0].Terminal() {
		t.Error("terminal snapshot must report Terminal()")
	}
}

func TestSlowPerJobSubscriberResyncs(t *testing.T) {
	h := NewHub(Config{SubscriberBuffer: 4, MaxSubscribers: 4, HistoryPerJob: 64})
	sub, err := h.Subscribe("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody reads: overflow the 4-slot buffer with stage chatter. The
	// backlog must collapse to a snapshot of the latest state.
	for i := 0; i < 20; i++ {
		h.Publish(Event{Type: TypeStage, JobID: "a", State: "running", Stage: fmt.Sprintf("s%d", i)})
	}
	got := collect(t, sub, 1)
	if got[0].Type != TypeSnapshot {
		t.Fatalf("overflowed buffer must open with a snapshot, got %+v", got[0])
	}
	// Deltas after the snapshot stay monotonic and reach the latest event.
	last := got[0].Seq
	for last < 20 {
		e := collect(t, sub, 1)[0]
		if e.Seq <= last {
			t.Fatalf("stream went backwards: %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	h.Publish(Event{Type: TypeDone, JobID: "a", State: "done"})
	rest := collect(t, sub, 1)
	if rest[0].Type != TypeDone || rest[0].Seq != 21 {
		t.Errorf("delta after snapshot: %+v", rest[0])
	}
	// A terminal event landing on a full buffer collapses to a terminal
	// snapshot — the subscriber still learns how the job ended.
	sub2, err := h.Subscribe("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	// 8 stage events leave the 4-slot buffer exactly full (collapse at the
	// 5th, refill through the 8th), so the failed event lands on a full
	// buffer and must collapse to a terminal snapshot.
	for i := 0; i < 8; i++ {
		h.Publish(Event{Type: TypeStage, JobID: "b", State: "running", Stage: fmt.Sprintf("s%d", i)})
	}
	h.Publish(Event{Type: TypeFailed, JobID: "b", State: "failed", Error: "boom"})
	term := collect(t, sub2, 1)
	if term[0].Type != TypeSnapshot || !term[0].Terminal() || term[0].Error != "boom" {
		t.Errorf("terminal collapse: %+v", term[0])
	}
}

func TestSubscriberLimit(t *testing.T) {
	h := NewHub(Config{MaxSubscribers: 2, SubscriberBuffer: 4, HistoryPerJob: 4})
	s1, err1 := h.Subscribe("a", 0)
	_, err2 := h.Subscribe("b", 0)
	if err1 != nil || err2 != nil {
		t.Fatalf("first two subscriptions: %v, %v", err1, err2)
	}
	if _, err := h.Subscribe("c", 0); !errors.Is(err, ErrTooManySubscribers) {
		t.Fatalf("third subscription: %v, want ErrTooManySubscribers", err)
	}
	s1.Close()
	if _, err := h.Subscribe("c", 0); err != nil {
		t.Fatalf("subscription after a Close: %v", err)
	}
}

// TestSubscribeNeedsJob: every stream is one job's; a subscription that
// names no job is refused and takes no slot.
func TestSubscribeNeedsJob(t *testing.T) {
	h := NewHub(Config{})
	if sub, err := h.Subscribe("", 0); !errors.Is(err, ErrNoJob) || sub != nil {
		t.Fatalf("Subscribe(\"\") = %v, %v; want ErrNoJob", sub, err)
	}
	if n := h.Subscribers(); n != 0 {
		t.Errorf("refused subscription counted: %d subscribers", n)
	}
}

func TestEvictionRetiresJobState(t *testing.T) {
	h := NewHub(Config{})
	known := func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		_, ok := h.jobs["a"]
		return ok
	}
	h.Publish(Event{Type: TypeDone, JobID: "a", State: "done"})
	if !known() {
		t.Fatal("job state missing before eviction")
	}
	sub, _ := h.Subscribe("a", 0)
	h.Publish(Event{Type: TypeEvicted, JobID: "a", State: "done"})
	if known() {
		t.Error("job state must leave the hub with its eviction")
	}
	got := collect(t, sub, 2)
	if got[1].Type != TypeEvicted || !got[1].Terminal() {
		t.Errorf("eviction event: %+v", got[1])
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	h := NewHub(Config{})
	sub, _ := h.Subscribe("a", 0)
	h.Publish(Event{Type: TypeQueued, JobID: "a", State: "queued"})
	h.Close()
	ctx := context.Background()
	if e, err := sub.Next(ctx); err != nil || e.Type != TypeQueued {
		t.Fatalf("buffered event after Close: %+v, %v", e, err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained subscription: %v, want ErrClosed", err)
	}
	h.Close() // idempotent
}

func TestNextHonoursContext(t *testing.T) {
	h := NewHub(Config{})
	sub, _ := h.Subscribe("a", 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next on silence: %v, want deadline exceeded", err)
	}
}

// TestConcurrentPublishSubscribe exercises the hub under -race: several
// publishers and two per-job subscribers per job churning concurrently.
func TestConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub(Config{SubscriberBuffer: 64, MaxSubscribers: 64, HistoryPerJob: 16})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Publish(Event{Type: TypeStage, JobID: fmt.Sprintf("job-%d", p), State: "running"})
			}
			h.Publish(Event{Type: TypeDone, JobID: fmt.Sprintf("job-%d", p), State: "done"})
		}(p)
	}
	var readers sync.WaitGroup
	for s := 0; s < 8; s++ {
		sub, err := h.Subscribe(fmt.Sprintf("job-%d", s%4), 0)
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func(sub *Subscription) {
			defer readers.Done()
			defer sub.Close()
			last := uint64(0)
			for {
				e, err := sub.Next(ctx)
				if err != nil {
					return
				}
				if e.Seq < last {
					t.Errorf("per-job stream went backwards: %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
				if e.Terminal() {
					return
				}
			}
		}(sub)
	}
	wg.Wait()
	h.Close()
	readers.Wait()
}
