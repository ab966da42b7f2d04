package jobs

import "errors"

// Fleet errors surfaced by Fleet implementations. Servers map these
// onto HTTP status codes, so they live here with the Fleet interface.
var (
	// ErrNodeUnknown reports a drain request for a URL that is not a fleet
	// member.
	ErrNodeUnknown = errors.New("node is not a fleet member")
	// ErrNodeUnhealthy reports a join request whose admission probe failed;
	// nodes are admitted to the ring only after answering a health probe.
	ErrNodeUnhealthy = errors.New("node failed its admission probe")
	// ErrLastNode reports a drain request that would leave the fleet with no
	// routable node.
	ErrLastNode = errors.New("cannot drain the last routable node")
)

// FleetNode describes one member of an elastic dispatch fleet.
type FleetNode struct {
	URL      string `json:"url"`
	Weight   int    `json:"weight"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	// Pending counts jobs routed to the node that have not reached a
	// terminal state; a draining node is removed when it hits zero.
	Pending int `json:"pending"`
}

// FleetView is an immutable snapshot of fleet membership at one epoch.
// The epoch increments on every membership mutation (join, drain, weight
// change, removal); in-flight submissions keep routing against the ring
// built for the epoch they started under.
type FleetView struct {
	Epoch uint64      `json:"epoch"`
	Nodes []FleetNode `json:"nodes"`
}

// FederationStats summarises the dispatcher's member-metrics scraping for
// the /v1/fleet JSON rollup.
type FederationStats struct {
	// NodesScraped counts members whose latest scrape succeeded and is
	// included in the merged exposition.
	NodesScraped int `json:"nodes_scraped"`
	// ScrapeFailures counts failed member scrapes over the process
	// lifetime.
	ScrapeFailures uint64 `json:"scrape_failures_total"`
	// LastScrapeUnixMS stamps the most recent scrape sweep; 0 before the
	// first one.
	LastScrapeUnixMS int64 `json:"last_scrape_unix_ms,omitempty"`
}

// Fleet is a Dispatcher whose worker topology changes at runtime. Only the
// remote dispatcher has one; consumers assert it once, at construction.
type Fleet interface {
	Dispatcher
	// Fleet reports the current membership.
	Fleet() FleetView
	// JoinNode admits a worker after its health probe passes. Joining an
	// existing member updates its weight and cancels a pending drain.
	JoinNode(url string, weight int) (FleetView, error)
	// DrainNode stops routing new keys to the node; its running jobs finish
	// and the node is removed once none remain pending, or at once if it
	// fails a health probe while draining.
	DrainNode(url string) (FleetView, error)
	// FederatedMetrics merges the members' Prometheus expositions into one
	// node-labelled scrape, refreshing a stale cache synchronously.
	FederatedMetrics() ([]byte, FederationStats, error)
	// FederationStats reports the scrape bookkeeping from cache only.
	FederationStats() FederationStats
}
