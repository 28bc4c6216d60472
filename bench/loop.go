package main

// Load drivers and sample statistics: the closed loop (each client sends
// its next request when the previous one completed) and the open loop (one
// request per period regardless, latency counted from the due time).

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

// quantile returns the q-quantile (nearest rank) of s; s must be sorted.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

func median(v []float64) float64 {
	s := append(samples(nil), v...)
	sort.Float64s(s)
	return s.quantile(0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// deck deals a client's requests: slot i holds the index of an input, an
// input with weight w fills w slots, and the slots are dealt in a random
// order that is reshuffled every pass. Every input so recurs in exact
// proportion to its weight, and the mix of cheap and dear requests in a
// window does not depend on luck.
type deck struct {
	slots []int
	next  int
}

func newDeck(weights []int) *deck {
	d := &deck{}
	for i, w := range weights {
		for ; w > 0; w-- {
			d.slots = append(d.slots, i)
		}
	}
	d.next = len(d.slots)
	return d
}

func (d *deck) deal(rng *rand.Rand) int {
	if d.next == len(d.slots) {
		rng.Shuffle(len(d.slots), func(i, j int) { d.slots[i], d.slots[j] = d.slots[j], d.slots[i] })
		d.next = 0
	}
	d.next++
	return d.slots[d.next-1]
}

// loopResult is what one measured window produced.
type loopResult struct {
	Lat       samples // sorted, one per operation attempted in the window
	Attempted int
	Failed    int
	Elapsed   time.Duration // window start to the last completion
	FirstErr  error
}

func (r *loopResult) opsPerSec() float64 {
	return float64(r.Attempted-r.Failed) / r.Elapsed.Seconds()
}

// closedLoop runs clients goroutines, each calling op back to back, for a
// warm-up that is discarded and then a measured window. op gets the client
// index and that client's own seed-derived rng; an error counts the
// operation as failed. Operations in flight when the window ends complete
// and are counted.
func closedLoop(seed int64, clients int, warm, window time.Duration, op func(client int, rng *rand.Rand) error) loopResult {
	start := time.Now().Add(warm)
	deadline := start.Add(window)
	type part struct {
		lat      samples
		failed   int
		firstErr error
		last     time.Time
	}
	parts := make([]part, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(mix(seed, 1000+c)))
			p := &parts[c]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := op(c, rng)
				t1 := time.Now()
				if t0.Before(start) {
					continue
				}
				p.lat = append(p.lat, ms(t1.Sub(t0)))
				p.last = t1
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var res loopResult
	last := start
	for _, p := range parts {
		res.Lat = append(res.Lat, p.lat...)
		res.Failed += p.failed
		if res.FirstErr == nil {
			res.FirstErr = p.firstErr
		}
		if p.last.After(last) {
			last = p.last
		}
	}
	sort.Float64s(res.Lat)
	res.Attempted = len(res.Lat)
	res.Elapsed = last.Sub(start)
	return res
}

// countedLoop is the closed loop over a fixed amount of work: one client
// calls op(i) back to back for warm discarded operations and then n
// measured ones. Where the system's cost grows with what it has already
// taken in, a fixed count keeps the work of a run the same whatever the
// speed; a window of fixed length would hand a faster system more, and
// dearer, work.
func countedLoop(warm, n int, op func(i int) error) loopResult {
	res := loopResult{Lat: make(samples, 0, n)}
	var start time.Time
	for i := 0; i < warm+n; i++ {
		t0 := time.Now()
		if i == warm {
			start = t0
		}
		err := op(i)
		if i < warm {
			continue
		}
		res.Lat = append(res.Lat, ms(time.Since(t0)))
		if err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = err
			}
		}
	}
	res.Attempted = n
	res.Elapsed = time.Since(start)
	sort.Float64s(res.Lat)
	return res
}

// openLoop calls op once per period, for a warm-up that is discarded and
// then a measured window, on one connection: request i is due at
// start+i·period and is sent as soon as it is due and the previous request
// has completed. Its latency runs from the due time, so a stall charges
// every request queued behind it. late is how far behind schedule the
// generator itself was when it was free to send (sorted, ms): it stays near
// zero unless the generator, not the system, is the bottleneck. Requests
// still unsent at twice the run's length are counted as failed without
// being sent, which bounds the run against a dead server.
func openLoop(period, warm, window time.Duration, op func(i int) error) (res loopResult, late samples) {
	start := time.Now()
	skip := int(warm / period)
	n := skip + int(window/period)
	free := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if time.Since(start) > 2*(warm+window) {
			res.Failed += n - i
			res.Attempted += n - i
			break
		}
		time.Sleep(time.Until(due))
		sent := time.Now()
		// Lateness the generator owns: time past the later of the due
		// time and the moment the connection became free.
		ref := due
		if free.After(ref) {
			ref = free
		}
		err := op(i)
		free = time.Now()
		if i < skip {
			continue
		}
		late = append(late, ms(sent.Sub(ref)))
		res.Lat = append(res.Lat, ms(free.Sub(due)))
		if err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = err
			}
		}
	}
	res.Attempted += len(res.Lat)
	res.Elapsed = time.Since(start) - warm
	sort.Float64s(res.Lat)
	sort.Float64s(late)
	return res, late
}
