package main

// The span recorder of the traced run. Spans are recorded from the
// benchmark's own code around the calls it makes into each layer's public
// functions, kept in memory, and written out when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Start and End are nanoseconds since the recorder
// was created; Parent is the index of the span that caused this one (-1 for
// a request's root span); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder collects spans. A nil recorder records nothing, so the untraced
// run executes the same code path minus the clock reads.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// layerStat is one layer's share of the traced requests.
type layerStat struct {
	Count  int   // spans recorded under the name
	SelfNS int64 // span time not covered by child spans
}

// selfTimes folds spans into per-name self time: a span's duration minus
// the part of its interval its direct children cover (children clipped to
// the parent, overlapping children counted once). The sum of all self
// times equals the sum of the root spans' durations.
func selfTimes(spans []span) map[string]layerStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerStat)
	for i, s := range spans {
		covered := int64(0)
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		edge := s.Start
		for _, c := range iv {
			lo, hi := c[0], c[1]
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.SelfNS += (s.End - s.Start) - covered
		out[s.Name] = st
	}
	return out
}

// rootNS sums the durations of the root spans (the traced request time).
func rootNS(spans []span) int64 {
	var sum int64
	for _, s := range spans {
		if s.Parent < 0 {
			sum += s.End - s.Start
		}
	}
	return sum
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
