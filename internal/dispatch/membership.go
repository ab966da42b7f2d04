package dispatch

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// maxNodeWeight bounds a single node's share of the ring so a typo'd join
// request cannot capture the whole key space.
const maxNodeWeight = 64

// view is one immutable routing snapshot of the fleet: the consistent-hash
// ring built over the routable (non-draining) members at one membership
// epoch. Mutations build a fresh view copy-on-write and swap the pointer;
// an in-flight submission keeps walking the view it grabbed, so a
// concurrent join or drain never re-routes it mid-walk.
type view struct {
	epoch    uint64
	ring     ring
	routable []*node // ring point indices map into this slice
}

// order returns the failover candidates for a key in ring order.
func (v *view) order(key uint64) []*node {
	idxs := v.ring.walk(key)
	out := make([]*node, len(idxs))
	for i, n := range idxs {
		out[i] = v.routable[n]
	}
	return out
}

// rebuildLocked constructs the routing view for the current membership,
// bumping the epoch. Draining nodes are excluded from the ring — no new
// keys route to them — but stay fleet members until their pending jobs
// finish. Caller holds mu.
func (r *Remote) rebuildLocked() {
	r.epoch++
	routable := make([]*node, 0, len(r.nodes))
	urls := make([]string, 0, len(r.nodes))
	weights := make([]int, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.draining {
			continue
		}
		routable = append(routable, n)
		urls = append(urls, n.url)
		weights = append(weights, n.weight)
	}
	r.view = &view{
		epoch:    r.epoch,
		ring:     buildWeightedRing(urls, weights, r.cfg.Replicas),
		routable: routable,
	}
}

// Fleet reports the current membership (jobs.Fleet).
func (r *Remote) Fleet() jobs.FleetView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fleetLocked()
}

// fleetLocked snapshots membership into the wire schema. Caller holds mu.
func (r *Remote) fleetLocked() jobs.FleetView {
	v := jobs.FleetView{Epoch: r.epoch, Nodes: make([]jobs.FleetNode, 0, len(r.nodes))}
	for _, n := range r.nodes {
		v.Nodes = append(v.Nodes, jobs.FleetNode{
			URL:      n.url,
			Weight:   n.weight,
			Healthy:  n.healthy,
			Draining: n.draining,
			Pending:  r.pendingLocked(n),
		})
	}
	return v
}

// pendingLocked counts jobs routed to a node that have not been observed
// terminal. Caller holds mu.
func (r *Remote) pendingLocked(n *node) int {
	pending := 0
	for _, e := range r.entries {
		if e.node == n && !e.done {
			pending++
		}
	}
	return pending
}

// JoinNode admits a worker into the fleet after probing its health
// (jobs.Fleet). A failed probe rejects the join with
// jobs.ErrNodeUnhealthy and leaves the membership untouched. Joining a URL
// that is already a member updates its weight and cancels a pending drain —
// the idempotent re-announce a restarted worker sends. Weight clamps to
// [1, 64]; zero means 1.
func (r *Remote) JoinNode(url string, weight int) (jobs.FleetView, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return jobs.FleetView{}, fmt.Errorf("dispatch: %w: empty node URL", jobs.ErrNodeUnhealthy)
	}
	if weight <= 0 {
		weight = 1
	}
	if weight > maxNodeWeight {
		weight = maxNodeWeight
	}
	// Probe outside the lock: admission must not stall routing.
	if err := r.probeOnce(url); err != nil {
		return jobs.FleetView{}, fmt.Errorf("dispatch: %s: %w: %v", url, jobs.ErrNodeUnhealthy, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return jobs.FleetView{}, jobs.ErrClosed
	}
	for _, n := range r.nodes {
		if n.url != url {
			continue
		}
		if n.weight == weight && !n.draining && n.healthy {
			return r.fleetLocked(), nil // no-op re-announce: keep the epoch
		}
		n.weight = weight
		n.draining = false
		n.healthy = true
		n.lastErr = ""
		r.rebuildLocked()
		r.log.Info("fleet member updated", "node", url, "weight", weight, "epoch", r.epoch)
		return r.fleetLocked(), nil
	}
	r.nodes = append(r.nodes, &node{url: url, healthy: true, weight: weight})
	r.rebuildLocked()
	r.log.Info("fleet member joined", "node", url, "weight", weight, "epoch", r.epoch)
	return r.fleetLocked(), nil
}

// probeOnce performs one admission health probe against the candidate's
// deep-health document: liveness (HTTP 200) admits only if the node does
// not report itself degraded — a worker with a stalled queue or a wedged
// drain must not be handed new keys. Bodies that do not parse as the
// deep-health schema stay admissible; liveness alone vouches for them.
func (r *Remote) probeOnce(url string) error {
	resp, err := r.client.Get(url + "/v1/healthz")
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var doc struct {
		Status string `json:"status"`
	}
	if json.Unmarshal(raw, &doc) == nil && doc.Status != "" && doc.Status != jobs.HealthOK {
		return fmt.Errorf("node reports deep health %q", doc.Status)
	}
	return nil
}

// DrainNode starts a graceful drain (jobs.Fleet): the node leaves
// the ring immediately — no new keys route to it — while its running jobs
// finish; the health loop removes it once none remain pending. Draining the
// last routable node is refused with jobs.ErrLastNode.
func (r *Remote) DrainNode(url string) (jobs.FleetView, error) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return jobs.FleetView{}, jobs.ErrClosed
	}
	for _, n := range r.nodes {
		if n.url != url {
			continue
		}
		if n.draining {
			return r.fleetLocked(), nil // idempotent
		}
		others := 0
		for _, o := range r.nodes {
			if o != n && !o.draining {
				others++
			}
		}
		if others == 0 {
			return jobs.FleetView{}, fmt.Errorf("dispatch: %s: %w", url, jobs.ErrLastNode)
		}
		n.draining = true
		n.drainPending = r.pendingLocked(n)
		n.drainChanged = r.clock()
		r.rebuildLocked()
		r.log.Info("fleet member draining", "node", url, "pending", n.drainPending, "epoch", r.epoch)
		return r.fleetLocked(), nil
	}
	return jobs.FleetView{}, fmt.Errorf("dispatch: %s: %w", url, jobs.ErrNodeUnknown)
}

// finalizeDrains removes draining members whose pending count reached zero,
// and draining members that failed their last health probe, pending jobs
// or not: a node that died mid-drain will never finish them, and those
// jobs fail over on their next poll. Run by the health loop each cycle,
// after probeAll, so a drained node disappears from the fleet within one
// interval of its last job finishing or of its death.
func (r *Remote) finalizeDrains() {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.nodes[:0]
	removed := 0
	for _, n := range r.nodes {
		if n.draining && (!n.healthy || r.pendingLocked(n) == 0) {
			removed++
			r.log.Info("fleet drain complete", "node", n.url, "healthy", n.healthy)
			continue
		}
		kept = append(kept, n)
	}
	if removed == 0 {
		return
	}
	r.nodes = kept
	r.rebuildLocked()
}
