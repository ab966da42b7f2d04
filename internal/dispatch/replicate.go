package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// Replicator pushes cache fills and artifact blobs to ring successors. It
// is the worker-side half of successor replication: the server's cache and
// artifact stores invoke it (through the jobs.ReplicaSink seam) whenever
// they store something for a job whose payload named a replica target, and
// it mirrors the bytes there over HTTP from a bounded background queue —
// the job's own latency never waits on replication, and a slow or dead
// successor only costs dropped replicas, never wedged workers.
type Replicator struct {
	client *http.Client
	ch     chan replicaTask
	stop   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	seen     map[string]struct{} // target|hash pairs already pushed (artifact dedup)
	seenList []string            // FIFO of seen keys, bounds the dedup set
	metrics  jobs.ReplicaMetrics
}

// replicaTask is one queued push.
type replicaTask struct {
	artifact bool
	target   string
	key      string // cache key (results) or content hash (artifacts)
	body     []byte
}

// replicaQueue bounds the push backlog; beyond it, replicas are dropped
// (and counted) rather than blocking the pipeline.
const replicaQueue = 256

// replicaSeenCap bounds the artifact dedup memory.
const replicaSeenCap = 4096

// Replicator is a ReplicaSink.
var _ jobs.ReplicaSink = (*Replicator)(nil)

// NewReplicator starts the push worker. A nil client gets a 30s-timeout
// default.
func NewReplicator(client *http.Client) *Replicator {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	p := &Replicator{
		client: client,
		ch:     make(chan replicaTask, replicaQueue),
		stop:   make(chan struct{}),
		seen:   make(map[string]struct{}),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// ReplicateResult mirrors a marshaled response document under its cache key
// (jobs.ReplicaSink). Never blocks: a full queue drops the push.
func (p *Replicator) ReplicateResult(target, key string, doc []byte) {
	p.enqueue(replicaTask{target: target, key: key, body: doc})
}

// ReplicateArtifact mirrors an artifact blob (jobs.ReplicaSink). Pushes of
// a hash already sent to the same target are deduplicated — artifacts are
// content-addressed, so one successful push is permanent.
func (p *Replicator) ReplicateArtifact(target, hash string, blob []byte) {
	k := target + "|" + hash
	p.mu.Lock()
	if _, dup := p.seen[k]; dup {
		p.mu.Unlock()
		return
	}
	p.seen[k] = struct{}{}
	p.seenList = append(p.seenList, k)
	if len(p.seenList) > replicaSeenCap {
		delete(p.seen, p.seenList[0])
		p.seenList = p.seenList[1:]
	}
	p.mu.Unlock()
	p.enqueue(replicaTask{artifact: true, target: target, key: hash, body: blob})
}

// ReplicaMetrics reports push counters (jobs.ReplicaSink).
func (p *Replicator) ReplicaMetrics() jobs.ReplicaMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// Backlog reports the push queue's current depth and capacity — the
// replication-backlog signal behind the deep-health watchdog: a queue
// sitting near capacity means replicas are about to be dropped.
func (p *Replicator) Backlog() (depth, capacity int) {
	return len(p.ch), cap(p.ch)
}

// Close stops the push worker after draining already-queued tasks.
func (p *Replicator) Close() {
	close(p.stop)
	p.wg.Wait()
}

func (p *Replicator) enqueue(t replicaTask) {
	if t.target == "" || len(t.body) == 0 {
		return
	}
	select {
	case p.ch <- t:
	default:
		p.mu.Lock()
		p.metrics.Dropped++
		p.mu.Unlock()
	}
}

func (p *Replicator) run() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.ch:
			p.push(t)
		case <-p.stop:
			// Drain what was queued before Close; new enqueues may still
			// race in, but the channel read below empties the buffer.
			for {
				select {
				case t := <-p.ch:
					p.push(t)
				default:
					return
				}
			}
		}
	}
}

// push performs one replication POST. Results go to the successor's replica
// intake; artifacts to its regular content-addressed PUT route (the hash is
// verified there, so a corrupt push cannot poison the successor).
func (p *Replicator) push(t replicaTask) {
	var err error
	if t.artifact {
		err = p.pushArtifact(t)
	} else {
		err = p.pushResult(t)
	}
	p.mu.Lock()
	if err != nil {
		p.metrics.Failures++
	} else if t.artifact {
		p.metrics.Artifacts++
	} else {
		p.metrics.Results++
	}
	p.mu.Unlock()
}

func (p *Replicator) pushResult(t replicaTask) error {
	doc, err := json.Marshal(struct {
		Key      string          `json:"key"`
		Response json.RawMessage `json:"response"`
	}{Key: t.key, Response: t.body})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, t.target+"/v1/worker/replica", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return p.do(req, http.StatusNoContent)
}

func (p *Replicator) pushArtifact(t replicaTask) error {
	req, err := http.NewRequest(http.MethodPost, t.target+"/v1/artifacts", bytes.NewReader(t.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return p.do(req, http.StatusCreated)
}

func (p *Replicator) do(req *http.Request, want int) error {
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	// 200 vs 201 on artifact re-PUT (already stored) are both success.
	if resp.StatusCode != want && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica push: %s answered %d", req.URL.Host, resp.StatusCode)
	}
	return nil
}
