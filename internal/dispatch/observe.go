// Fleet-wide observability: the dispatcher's half of the metrics
// federation and deep-health planes. Each health cycle the
// dispatcher scrapes every member's Prometheus exposition alongside the
// liveness probe; the merged, node-labelled view is served through the
// jobs.Fleet seam at GET /v1/fleet/metrics. ComponentHealth
// contributes the fleet-routability and drain-stuck watchdogs to the
// deep-health document.
package dispatch

import (
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
)

// drainStuckWindow is the drain-stuck threshold: a draining node whose
// pending count has not moved for this long degrades the "drain" health
// component.
const drainStuckWindow = 5 * time.Minute

// scrapeBodyLimit bounds one member's exposition read.
const scrapeBodyLimit = 4 << 20

// memberScrape is one node's cached exposition (or scrape failure).
type memberScrape struct {
	raw []byte
	err error
}

// scrapeAll pulls every current member's Prometheus exposition, rebuilding
// the federation cache in one sweep — removed members drop out of the
// merged view at the next sweep. Runs on the health-probe cadence; HTTP
// happens outside both locks.
func (r *Remote) scrapeAll() {
	r.mu.Lock()
	urls := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		urls = append(urls, n.url)
	}
	r.mu.Unlock()

	fresh := make(map[string]memberScrape, len(urls))
	var freshMu sync.Mutex
	var wg sync.WaitGroup
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			s := r.scrapeOne(u)
			freshMu.Lock()
			fresh[u] = s
			freshMu.Unlock()
		}(u)
	}
	wg.Wait()

	failed := uint64(0)
	for _, s := range fresh {
		if s.err != nil {
			failed++
		}
	}
	r.scrapeMu.Lock()
	r.scrapes = fresh
	r.scrapeFailures += failed
	r.lastScrape = r.clock()
	r.scrapeMu.Unlock()
}

// scrapeOne fetches one member's exposition.
func (r *Remote) scrapeOne(url string) memberScrape {
	resp, err := r.client.Get(url + "/v1/metrics?format=prometheus")
	if err != nil {
		return memberScrape{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, scrapeBodyLimit))
	if err != nil {
		return memberScrape{err: err}
	}
	if resp.StatusCode != 200 {
		return memberScrape{err: fmt.Errorf("metrics status %d", resp.StatusCode)}
	}
	return memberScrape{raw: raw}
}

// FederatedMetrics merges the cached member expositions into one
// node-labelled cluster exposition (jobs.Fleet). A cache that
// has never been filled or has outlived two health intervals is refreshed
// synchronously, so federation works before the first health tick and
// under test configurations whose health loop never fires.
func (r *Remote) FederatedMetrics() ([]byte, jobs.FederationStats, error) {
	r.scrapeMu.Lock()
	stale := r.scrapes == nil || r.clock().Sub(r.lastScrape) > 2*r.cfg.HealthInterval
	r.scrapeMu.Unlock()
	if stale {
		r.scrapeAll()
	}

	r.scrapeMu.Lock()
	nodes := make([]obs.ScrapedNode, 0, len(r.scrapes))
	stats := jobs.FederationStats{ScrapeFailures: r.scrapeFailures}
	if !r.lastScrape.IsZero() {
		stats.LastScrapeUnixMS = r.lastScrape.UnixMilli()
	}
	for u, s := range r.scrapes {
		nodes = append(nodes, obs.ScrapedNode{Node: u, Exposition: s.raw, Err: s.err})
		if s.err == nil {
			stats.NodesScraped++
		}
	}
	r.scrapeMu.Unlock()

	merged, err := obs.MergeExpositions(nodes)
	if err != nil {
		return nil, stats, fmt.Errorf("dispatch: federate metrics: %w", err)
	}
	return merged, stats, nil
}

// FederationStats reports the scrape bookkeeping from the cache alone —
// the /v1/fleet rollup reads it, and listing the fleet must never trigger
// a scrape sweep.
func (r *Remote) FederationStats() jobs.FederationStats {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	stats := jobs.FederationStats{ScrapeFailures: r.scrapeFailures}
	if !r.lastScrape.IsZero() {
		stats.LastScrapeUnixMS = r.lastScrape.UnixMilli()
	}
	for _, s := range r.scrapes {
		if s.err == nil {
			stats.NodesScraped++
		}
	}
	return stats
}

// ComponentHealth contributes the dispatcher's watchdogs to the
// deep-health document:
//
//   - "dispatch" degrades when no healthy routable node remains — every
//     submission would fail with ErrQueueFull;
//   - "drain" degrades when a draining node's pending count has not moved
//     for drainStuckWindow — the signature of a drain wedged behind a job
//     that will never finish.
//
// Both verdicts keep the HTTP healthz status 200: a degraded front end is
// alive, and the fleet's own probers must not mistake it for dead.
func (r *Remote) ComponentHealth() map[string]jobs.ComponentHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock()

	routable, healthy := 0, 0
	for _, n := range r.nodes {
		if n.draining {
			continue
		}
		routable++
		if n.healthy {
			healthy++
		}
	}
	disp := jobs.HealthOKComponent()
	switch {
	case routable == 0:
		disp = jobs.HealthDegradedComponent("no routable worker nodes: fleet is empty or fully draining")
	case healthy == 0:
		disp = jobs.HealthDegradedComponent("no healthy worker nodes: all %d routable member(s) unreachable", routable)
	}

	drain := jobs.HealthOKComponent()
	for _, n := range r.nodes {
		if !n.draining {
			continue
		}
		p := r.pendingLocked(n)
		if p != n.drainPending {
			n.drainPending = p
			n.drainChanged = now
			continue
		}
		if p > 0 && !n.drainChanged.IsZero() && now.Sub(n.drainChanged) > drainStuckWindow {
			drain = jobs.HealthDegradedComponent(
				"drain stuck: %s has held %d pending job(s) for %s (threshold %s)",
				n.url, p, now.Sub(n.drainChanged).Round(time.Millisecond), drainStuckWindow)
		}
	}
	return map[string]jobs.ComponentHealth{"dispatch": disp, "drain": drain}
}
