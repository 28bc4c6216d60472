package stream

import (
	"sync"

	"threatraptor/internal/faultinject"
	"threatraptor/internal/relational"
	"threatraptor/internal/tbql"
)

// Match is one standing-query firing: the projected return row of a
// complete binding that uses at least one newly sealed event, delivered
// once per subscription (deduplicated against every prior firing of the
// same subscription, see Config.DedupHighWater).
type Match struct {
	// Batch is the sealed-batch sequence number whose append produced
	// the firing.
	Batch int64
	// Columns labels Row, in the query's RETURN order.
	Columns []string
	// Row is the projected return row.
	Row []relational.Value
	// Terminal marks the final delivery of a quarantined subscription:
	// the query failed Config.QuarantineAfter consecutive evaluations,
	// its views were dropped, and the channel closes after this match.
	// Terminal matches carry no row; Subscription.Err holds the cause.
	Terminal bool
}

// Subscription is one registered standing query. Matches arrive on C;
// the channel is closed by Unwatch or Session.Close.
type Subscription struct {
	// ID identifies the subscription within its session.
	ID int64
	// Query is the TBQL source as registered.
	Query string
	// C delivers matches. The channel is buffered (Config.MatchBuffer);
	// when the consumer lags past the buffer, matches are dropped and
	// counted rather than stalling ingestion.
	C <-chan Match

	c        chan Match
	analyzed *tbql.Analyzed
	seen     *relational.RowSet

	mu      sync.Mutex
	dropped int64
	resets  int64
	err     error
	// failures counts consecutive failed evaluations; quarantine trips
	// when it reaches Config.QuarantineAfter. A clean evaluation resets it.
	failures    int
	quarantined bool
}

// Dropped reports how many matches were discarded because C's buffer was
// full.
func (sub *Subscription) Dropped() int64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.dropped
}

// DedupResets reports how many times the firing-dedup set hit
// Config.DedupHighWater and was flushed. A nonzero value means delivery
// degraded from exactly-once to at-least-once: bindings delivered before a
// flush may be delivered again if a later batch re-derives them.
func (sub *Subscription) DedupResets() int64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.resets
}

// Err returns the last evaluation error (nil when every batch evaluated
// cleanly). Below the quarantine threshold an erroring subscription stays
// registered and the error is overwritten by the next evaluation; once
// the subscription is quarantined the error latches permanently.
func (sub *Subscription) Err() error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.err
}

// Quarantined reports whether the subscription was removed after
// Config.QuarantineAfter consecutive failed evaluations. Its channel is
// closed (after a best-effort Terminal match) and Err is latched.
func (sub *Subscription) Quarantined() bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.quarantined
}

// Watch compiles a TBQL query and subscribes it to the stream; it runs
// nothing. Each sealed batch is evaluated incrementally by the engine's
// delta rule (only new rows join against the indexed history), and the
// projected rows of the bindings that use at least one event sealed after
// Watch — for a variable-length path, a trail through at least one such
// event — are delivered on the returned subscription's channel, each the
// first time a binding derives it, even when a pre-Watch binding derived
// the same row. Query history with the engine's Hunt instead.
func (s *Session) Watch(src string) (*Subscription, error) {
	q, err := tbql.Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.nextSub++
	c := make(chan Match, s.cfg.MatchBuffer)
	sub := &Subscription{
		ID:       s.nextSub,
		Query:    src,
		C:        c,
		c:        c,
		analyzed: a,
		seen:     relational.NewRowSet(),
	}
	s.subs[sub.ID] = sub
	return sub, nil
}

// Unwatch removes a subscription, closes its channel, and releases the
// engine's materialized views for its query (a long-lived session must
// not keep match caches for queries nobody watches). It is a no-op for
// subscriptions of other sessions or already-removed ones.
func (s *Session) Unwatch(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.subs[sub.ID]; ok && cur == sub {
		delete(s.subs, sub.ID)
		s.backend.DropViews(sub.analyzed)
		close(sub.c)
	}
}

// Subscriptions returns how many standing queries are registered.
func (s *Session) Subscriptions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.subs)
}

// fireLocked evaluates every standing query against the freshly appended
// batch (events with ID >= deltaFloor) and delivers new matches. Callers
// hold the write lock, which also serializes evaluation against the next
// append.
func (s *Session) fireLocked(deltaFloor int64) int {
	fired := 0
	for _, sub := range s.subs {
		// Bound the dedup set before evaluating so one batch's matches
		// dedup against a consistent set (see Config.DedupHighWater for
		// the at-least-once semantics past a flush).
		if s.cfg.DedupHighWater > 0 && sub.seen.Len() >= s.cfg.DedupHighWater {
			sub.seen = relational.NewRowSet()
			sub.mu.Lock()
			sub.resets++
			sub.mu.Unlock()
		}
		res, _, err := s.backend.ExecuteDelta(nil, sub.analyzed, deltaFloor)
		if err == nil {
			err = faultinject.Hit(FaultDeliver)
		}
		if err != nil {
			sub.mu.Lock()
			sub.err = err
			sub.failures++
			trip := s.cfg.QuarantineAfter > 0 && sub.failures >= s.cfg.QuarantineAfter
			if trip {
				sub.quarantined = true
			}
			sub.mu.Unlock()
			if trip {
				// Quarantine: a persistently failing query must not keep
				// burning every batch. Drop its views, deliver a terminal
				// marker best-effort, and close the channel.
				delete(s.subs, sub.ID)
				s.backend.DropViews(sub.analyzed)
				select {
				case sub.c <- Match{Batch: s.batch, Terminal: true}:
				default:
				}
				close(sub.c)
			}
			continue
		}
		sub.mu.Lock()
		sub.err = nil
		sub.failures = 0
		sub.mu.Unlock()
		for _, row := range res.Set.Rows {
			if !sub.seen.Add(row) {
				continue
			}
			m := Match{Batch: s.batch, Columns: res.Set.Columns, Row: row}
			select {
			case sub.c <- m:
				fired++
			default:
				sub.mu.Lock()
				sub.dropped++
				sub.mu.Unlock()
			}
		}
	}
	return fired
}
