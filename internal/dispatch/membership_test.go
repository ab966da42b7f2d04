// Tests for the elastic fleet: bounded key movement on the weighted ring,
// probe-gated admission, graceful drain, and failover recovery from a ring
// successor's replicated cache (DESIGN.md §16).
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// ringPrimaries maps a fixed key population to their primary node URL.
func ringPrimaries(urls []string, weights []int, keys int) []string {
	r := buildWeightedRing(urls, weights, 64)
	out := make([]string, keys)
	for i := 0; i < keys; i++ {
		out[i] = urls[r.walk(hashString("clip-" + strconv.Itoa(i)))[0]]
	}
	return out
}

// TestRingBoundedKeyMovement is the property behind every membership
// mutation: a topology change moves only the keys it must. A join moves
// keys only onto the joiner, a leave moves only the leaver's keys, and a
// weight increase moves keys only onto the upweighted node — in every case
// a bounded fraction of the key space, never a reshuffle.
func TestRingBoundedKeyMovement(t *testing.T) {
	const keys = 4000
	base := ringPrimaries([]string{"http://a", "http://b", "http://c"}, []int{1, 1, 1}, keys)

	// Join: node d enters a 3-node ring. Expected movement ~1/4.
	joined := ringPrimaries([]string{"http://a", "http://b", "http://c", "http://d"}, []int{1, 1, 1, 1}, keys)
	moved := 0
	for i := range base {
		if joined[i] != base[i] {
			moved++
			if joined[i] != "http://d" {
				t.Fatalf("key %d moved %s -> %s on join of d: only the joiner may gain keys",
					i, base[i], joined[i])
			}
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Errorf("join moved %d/%d keys, want roughly %d (bounded, non-zero)", moved, keys, keys/4)
	}

	// Leave: node c departs. Exactly c's keys re-home; everyone else's stay.
	left := ringPrimaries([]string{"http://a", "http://b"}, []int{1, 1}, keys)
	for i := range base {
		if base[i] == "http://c" {
			if left[i] == "http://c" {
				t.Fatalf("key %d still maps to the departed node", i)
			}
		} else if left[i] != base[i] {
			t.Fatalf("key %d moved %s -> %s on leave of c: keys not homed on the leaver must not move",
				i, base[i], left[i])
		}
	}

	// Weight change: b grows 1 -> 3. Weight growth only adds ring points,
	// so movement flows exclusively toward b.
	heavier := ringPrimaries([]string{"http://a", "http://b", "http://c"}, []int{1, 3, 1}, keys)
	moved = 0
	gained := 0
	for i := range base {
		if heavier[i] != base[i] {
			moved++
			if heavier[i] != "http://b" {
				t.Fatalf("key %d moved %s -> %s on upweighting b: only b may gain keys",
					i, base[i], heavier[i])
			}
		}
		if heavier[i] == "http://b" {
			gained++
		}
	}
	if moved == 0 || moved > 3*keys/4 {
		t.Errorf("weight change moved %d/%d keys — want a bounded, non-zero fraction", moved, keys)
	}
	if gained <= keys/3 {
		t.Errorf("b owns %d/%d keys at weight 3 of 5 total — upweighting had no effect", gained, keys)
	}
}

// acceptingWorker fakes a worker node that 202-accepts every payload and
// reports queued status, counting its intake.
func acceptingWorker(t *testing.T, accepts *int32) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			n := atomic.AddInt32(accepts, 1)
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"feed%012d","state":"queued"}`, n)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`) // healthz and status polls
	}))
}

// TestJoinProbeGatesAdmission: an unreachable node never enters the
// membership; a live one does, bumping the epoch exactly once — an
// unchanged re-announce is a no-op that keeps the epoch.
func TestJoinProbeGatesAdmission(t *testing.T) {
	var aAccepts, bAccepts int32
	a := acceptingWorker(t, &aAccepts)
	defer a.Close()
	b := acceptingWorker(t, &bAccepts)
	defer b.Close()

	d, err := New(Config{Nodes: []string{a.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	before := d.Fleet()
	if _, err := d.JoinNode("http://127.0.0.1:1", 2); !errors.Is(err, jobs.ErrNodeUnhealthy) {
		t.Fatalf("join of an unreachable node = %v, want ErrNodeUnhealthy", err)
	}
	if after := d.Fleet(); after.Epoch != before.Epoch || len(after.Nodes) != 1 {
		t.Fatalf("failed join mutated the membership: %+v", after)
	}

	view, err := d.JoinNode(b.URL, 3)
	if err != nil {
		t.Fatal(err)
	}
	if view.Epoch != before.Epoch+1 || len(view.Nodes) != 2 {
		t.Fatalf("join: epoch %d nodes %d, want epoch %d nodes 2", view.Epoch, len(view.Nodes), before.Epoch+1)
	}
	for _, n := range view.Nodes {
		if n.URL == b.URL && (n.Weight != 3 || !n.Healthy) {
			t.Fatalf("joined node state %+v", n)
		}
	}

	// Idempotent re-announce: same URL, same weight — epoch untouched.
	again, err := d.JoinNode(b.URL, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != view.Epoch {
		t.Errorf("no-op re-announce bumped the epoch %d -> %d", view.Epoch, again.Epoch)
	}

	// A runtime-joined node actually receives traffic.
	for i := 0; i < 32; i++ {
		if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "join-" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if atomic.LoadInt32(&bAccepts) == 0 {
		t.Error("runtime-joined node got no traffic across 32 keys")
	}
}

// TestDrainStopsNewKeysThenRemoves: a draining node leaves the ring
// immediately (no new keys), stays a member while jobs are pending, and is
// removed by drain finalization once none remain. The last routable node
// cannot drain.
func TestDrainStopsNewKeysThenRemoves(t *testing.T) {
	var aAccepts, bAccepts int32
	a := acceptingWorker(t, &aAccepts)
	defer a.Close()
	b := acceptingWorker(t, &bAccepts)
	defer b.Close()

	d, err := New(Config{Nodes: []string{a.URL, b.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	if _, err := d.DrainNode("http://nobody:1"); !errors.Is(err, jobs.ErrNodeUnknown) {
		t.Fatalf("drain of a non-member = %v, want ErrNodeUnknown", err)
	}

	view, err := d.DrainNode(b.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Nodes) != 2 {
		t.Fatalf("draining node left the membership early: %+v", view.Nodes)
	}
	for _, n := range view.Nodes {
		if n.URL == b.URL && !n.Draining {
			t.Fatalf("drained node not marked draining: %+v", n)
		}
	}

	// No new keys route to the draining node.
	for i := 0; i < 24; i++ {
		if _, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "drain-" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&bAccepts); got != 0 {
		t.Errorf("draining node accepted %d new keys, want 0", got)
	}
	if atomic.LoadInt32(&aAccepts) != 24 {
		t.Errorf("surviving node accepted %d/24", atomic.LoadInt32(&aAccepts))
	}

	// Nothing pending on b — finalization (normally the health loop's job)
	// removes it.
	d.finalizeDrains()
	if after := d.Fleet(); len(after.Nodes) != 1 || after.Nodes[0].URL != a.URL {
		t.Fatalf("drain did not finalize: %+v", after.Nodes)
	}

	if _, err := d.DrainNode(a.URL); !errors.Is(err, jobs.ErrLastNode) {
		t.Fatalf("drain of the last node = %v, want ErrLastNode", err)
	}
}

// TestDrainForgetsDeadNode: a draining node that dies with jobs pending is
// dropped from the fleet by the first health cycle that finds it
// unreachable, even without replication, and its stranded jobs report
// failed on their next poll. While it still answers probes it stays a
// member until its jobs finish.
func TestDrainForgetsDeadNode(t *testing.T) {
	var aAccepts, bAccepts int32
	a := acceptingWorker(t, &aAccepts)
	defer a.Close()
	b := acceptingWorker(t, &bAccepts)
	defer b.Close()

	d, err := New(Config{Nodes: []string{a.URL, b.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	// Spread keys until b holds a job that never finishes.
	var stranded string
	for i := 0; stranded == "" && i < 64; i++ {
		before := atomic.LoadInt32(&bAccepts)
		id, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "dead-" + strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		if atomic.LoadInt32(&bAccepts) > before {
			stranded = id
		}
	}
	if stranded == "" {
		t.Fatal("no key routed to the node under test")
	}
	if _, err := d.DrainNode(b.URL); err != nil {
		t.Fatal(err)
	}

	// Alive with a job pending: the drain waits.
	d.probeAll()
	d.finalizeDrains()
	if n := len(d.Fleet().Nodes); n != 2 {
		t.Fatalf("live draining node with pending jobs removed early: %d members", n)
	}

	b.Close()
	d.probeAll()
	d.finalizeDrains()
	after := d.Fleet()
	if len(after.Nodes) != 1 || after.Nodes[0].URL != a.URL {
		t.Fatalf("dead draining node still a member: %+v", after.Nodes)
	}

	st, err := d.Status(stranded)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateFailed {
		t.Errorf("job on the forgotten node = %q, want failed", st.State)
	}
}

// TestFailoverServesReplicatedResult is the dispatch-level chaos scenario:
// a job lands on its primary, the primary dies, and the result poll
// recovers the job from the ring successor — which, having received the
// replicated payload target, answers from its cache with the finished
// document. The job completes under its original id with a failover
// counted.
func TestFailoverServesReplicatedResult(t *testing.T) {
	resultDoc := `{"advice":["good takeoff"],"distance_cm":182}`

	var primaryAccepts int32
	primary := acceptingWorker(t, &primaryAccepts)
	defer primary.Close()

	var successorTarget atomic.Value // replica_target seen on the successor
	successorTarget.Store("")
	var successorRuns int32
	successor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		atomic.AddInt32(&successorRuns, 1)
		var p jobs.Payload
		if err := json.NewDecoder(r.Body).Decode(&p); err == nil {
			successorTarget.Store(p.ReplicaTarget)
		}
		// Replica cache hit: answer the finished document without running
		// anything.
		w.Header().Set("X-SLJ-Cache", "hit")
		fmt.Fprint(w, resultDoc)
	}))
	defer successor.Close()

	d, err := New(Config{
		Nodes:          []string{primary.URL, successor.URL},
		Replicate:      true,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())

	// Find a key homed on the primary: its accept counter moves.
	var id string
	for i := 0; i < 256 && id == ""; i++ {
		before := atomic.LoadInt32(&primaryAccepts)
		jid, err := d.Submit(jobs.Payload{Kind: jobs.KindAnalysis, CacheKey: "chaos-" + strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		if atomic.LoadInt32(&primaryAccepts) > before {
			id = jid
		}
	}
	if id == "" {
		t.Fatal("no key homed on the primary across 256 tries")
	}

	// Kill the primary; the next result poll must fail over.
	runsBeforeKill := atomic.LoadInt32(&successorRuns)
	primary.Close()

	res, err := d.Result(id)
	if err != nil {
		t.Fatalf("result after primary death = %v, want the replicated document", err)
	}
	doc, ok := res.(*jobs.Document)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	if raw := doc.Served(); string(raw) != resultDoc {
		t.Fatalf("failover result %q, want the successor's byte-identical document %q", raw, resultDoc)
	}

	st, err := d.Status(id)
	if err != nil || st.State != jobs.StateDone {
		t.Fatalf("status after recovery: %+v, %v", st, err)
	}
	if got := successorTarget.Load().(string); got == primary.URL {
		t.Errorf("recovered payload still targets the dead primary %q for replication", got)
	}
	m := d.Metrics()
	if m.Failovers == 0 {
		t.Error("failover not counted")
	}
	if got := atomic.LoadInt32(&successorRuns) - runsBeforeKill; got != 1 {
		t.Errorf("successor saw %d submissions after the kill, want exactly the one recovery", got)
	}
}
