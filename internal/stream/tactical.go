package stream

// The session-facing surface of the tactical detection layer: ranked
// incident listing and per-round incident update subscriptions. The
// analyzer itself lives in internal/tactical; this file only adapts it to
// the session's lifecycle (rounds run in advanceLocked, subscriptions
// close with the session).

import (
	"sync/atomic"

	"threatraptor/internal/tactical"
)

// IncidentUpdate is one tactical round's outcome, delivered to incident
// subscriptions after a sealed batch tagged at least one alert.
type IncidentUpdate struct {
	// Batch is the sealed-batch sequence number that produced the round.
	Batch int64 `json:"batch"`
	// Alerts tagged and incidents opened by the round.
	Alerts       int `json:"alerts"`
	NewIncidents int `json:"new_incidents"`
	// Incidents is the full ranked incident list after the round.
	Incidents []tactical.Incident `json:"incidents"`
}

// IncidentSub is a registered incident-update subscription.
type IncidentSub struct {
	// C delivers one IncidentUpdate per alert-producing round. The
	// channel closes when the subscription is removed or the session
	// closes. A full channel drops the update (Dropped counts them)
	// rather than blocking ingestion — consumers can always re-sync from
	// Incidents().
	C <-chan IncidentUpdate

	id      int64
	c       chan IncidentUpdate
	dropped atomic.Int64
}

// Dropped reports updates discarded because the consumer lagged. Safe
// from any goroutine, concurrently with delivery.
func (s *IncidentSub) Dropped() int { return int(s.dropped.Load()) }

// TacticalEnabled reports whether the session runs tactical rounds (a
// rule set was configured).
func (s *Session) TacticalEnabled() bool { return s.tact != nil }

// Incidents returns the ranked incident list (copies; empty without a
// configured rule set). It takes no session lock: the analyzer guards its
// own state, so listing runs concurrently with ingestion.
func (s *Session) Incidents() []tactical.Incident {
	if s.tact == nil {
		return nil
	}
	return s.tact.Ranked()
}

// TacticalStats returns the analyzer's lifetime totals (zero without a
// configured rule set).
func (s *Session) TacticalStats() tactical.Stats {
	if s.tact == nil {
		return tactical.Stats{}
	}
	return s.tact.Stats()
}

// WatchIncidents registers an incident-update subscription. buf is the
// channel capacity (<=0 uses the session's MatchBuffer default).
func (s *Session) WatchIncidents(buf int) (*IncidentSub, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.tact == nil {
		return nil, ErrTacticalDisabled
	}
	if buf <= 0 {
		buf = s.cfg.MatchBuffer
	}
	s.nextIncSub++
	sub := &IncidentSub{id: s.nextIncSub, c: make(chan IncidentUpdate, buf)}
	sub.C = sub.c
	s.incSubs[sub.id] = sub
	return sub, nil
}

// UnwatchIncidents removes a subscription and closes its channel.
func (s *Session) UnwatchIncidents(sub *IncidentSub) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.incSubs[sub.id]; !ok {
		return
	}
	delete(s.incSubs, sub.id)
	close(sub.c)
}

// notifyIncidentSubsLocked fans one round's update out to every incident
// subscription. Callers hold the write lock. The ranked list is built
// once and shared — subscribers treat updates as read-only.
func (s *Session) notifyIncidentSubsLocked(rs tactical.RoundStats) {
	if len(s.incSubs) == 0 {
		return
	}
	upd := IncidentUpdate{
		Batch:        s.batch,
		Alerts:       rs.Alerts,
		NewIncidents: rs.NewIncidents,
		Incidents:    s.tact.Ranked(),
	}
	for _, sub := range s.incSubs {
		select {
		case sub.c <- upd:
		default:
			sub.dropped.Add(1)
		}
	}
}
