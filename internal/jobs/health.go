// Componentwise deep health: the watchdog surface behind GET /v1/healthz.
// Each subsystem reports one ComponentHealth; the server merges them into
// the deep-health document and the fleet join probe refuses members whose
// overall status is not ok. The HTTP status stays 200 either way — a
// stalled node is alive, and the dispatcher's health prober must not
// confuse "degraded" with "dead".
package jobs

import (
	"fmt"
	"time"
)

// Health component statuses.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// ComponentHealth is one subsystem's readiness verdict.
type ComponentHealth struct {
	Status string `json:"status"`
	// Reason explains a degraded verdict, empty when ok.
	Reason string `json:"reason,omitempty"`
}

// HealthOKComponent is the all-clear verdict.
func HealthOKComponent() ComponentHealth { return ComponentHealth{Status: HealthOK} }

// HealthDegradedComponent builds a degraded verdict with its reason.
func HealthDegradedComponent(format string, args ...any) ComponentHealth {
	return ComponentHealth{Status: HealthDegraded, Reason: fmt.Sprintf(format, args...)}
}

// DefaultStallAfter is the queue-stall threshold when Config.StallAfter
// is zero: a job queued longer than this without a worker picking it up
// flips the queue component to degraded.
const DefaultStallAfter = 2 * time.Minute

// ComponentHealth reports the in-process Manager's components:
// the "queue" component degrades when the oldest still-queued job has
// waited past the stall threshold — the signature of a wedged worker
// pool (every worker stuck in a payload that never returns).
func (m *Manager) ComponentHealth() map[string]ComponentHealth {
	stallAfter := m.cfg.StallAfter
	if stallAfter <= 0 {
		stallAfter = DefaultStallAfter
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clock()
	var oldest time.Duration
	queued := 0
	for _, j := range m.jobs {
		if j.state != StateQueued || j.aborted {
			continue
		}
		queued++
		if w := now.Sub(j.enqueued); w > oldest {
			oldest = w
		}
	}
	queue := HealthOKComponent()
	if oldest > stallAfter {
		queue = HealthDegradedComponent(
			"queue stalled: oldest of %d queued job(s) waiting %s (threshold %s)",
			queued, oldest.Round(time.Millisecond), stallAfter)
	}
	return map[string]ComponentHealth{"queue": queue}
}
