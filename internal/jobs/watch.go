package jobs

import (
	"context"

	"github.com/sljmotion/sljmotion/internal/events"
)

// EventHub exposes the manager's event hub for the global dashboard feed.
func (m *Manager) EventHub() *events.Hub { return m.hub }

// Watch streams one job's lifecycle and per-stage progress events. Events
// arrive in per-job sequence order; afterSeq resumes after that sequence
// number — the hub replays its retained history past it, or opens with a
// snapshot when the gap is no longer covered. The channel closes after the
// terminal event (done, failed or evicted), when ctx is cancelled, or when
// the manager shuts down. Unknown or expired ids return ErrNotFound.
func (m *Manager) Watch(ctx context.Context, id string, afterSeq uint64) (<-chan events.Event, error) {
	// Subscribe before the existence check: an eviction between the two
	// is then delivered as an event instead of leaving the subscriber
	// waiting on a job the hub already forgot.
	sub, err := m.hub.Subscribe(id, afterSeq)
	if err != nil {
		return nil, err
	}
	if _, err := m.Status(id); err != nil {
		sub.Close()
		return nil, err
	}
	ch := make(chan events.Event, 16)
	go func() {
		defer close(ch)
		defer sub.Close()
		for {
			e, err := sub.Next(ctx)
			if err != nil {
				return
			}
			select {
			case ch <- e:
			case <-ctx.Done():
				return
			}
			if e.Terminal() {
				return
			}
		}
	}()
	return ch, nil
}
