package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests runs the open-loop scheduler
// against a fake server that stalls once. Latency is counted from the due
// time, so the requests queued behind the stall are slow too; the stall is
// the server's, so the generator's own lateness stays near zero.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const period = 5 * time.Millisecond
	const stall = 60 * time.Millisecond
	var sent []time.Time
	res, late := openLoop(period, 2*period, 40*period, func(i int) error {
		sent = append(sent, time.Now())
		if i == 10 {
			time.Sleep(stall)
		} else {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})
	if len(sent) != 42 || res.Attempted != 40 || res.Failed != 0 || len(res.Lat) != 40 {
		t.Fatalf("sent %d, attempted %d, failed %d, %d samples", len(sent), res.Attempted, res.Failed, len(res.Lat))
	}
	// The stalled request and the ~11 queued behind it (60 ms / 5 ms) were
	// all answered late: well over a quarter of the 40 samples exceed two
	// periods, although only one request was slow at the server.
	slow := 0
	for _, l := range res.Lat {
		if l > ms(2*period) {
			slow++
		}
	}
	if slow < 8 {
		t.Errorf("only %d samples exceed two periods; the stall was not charged to the queue (latencies %v)", slow, res.Lat)
	}
	if max := res.Lat.quantile(1); max < ms(stall) {
		t.Errorf("max latency %.2f ms is below the stall", max)
	}
	if p95 := late.quantile(0.95); p95 > ms(period) {
		t.Errorf("generator lateness p95 %.2f ms: the server's stall was charged to the generator", p95)
	}
	// Before the stall the schedule holds: request i goes out at i·period.
	for i := 1; i <= 10; i++ {
		if d := sent[i].Sub(sent[0]) - time.Duration(i)*period; d < -period/2 || d > 2*period {
			t.Errorf("request %d sent %v off schedule", i, d)
		}
	}
}

// TestOpenLoopGivesUpOnDeadServer checks the bound on a server that never
// recovers: unsent requests are failed, not waited for.
func TestOpenLoopGivesUpOnDeadServer(t *testing.T) {
	res, _ := openLoop(time.Millisecond, 0, 20*time.Millisecond, func(int) error {
		time.Sleep(15 * time.Millisecond)
		return errors.New("down")
	})
	if res.Attempted != 20 || res.Failed != 20 {
		t.Errorf("attempted %d failed %d, want 20 and 20", res.Attempted, res.Failed)
	}
}

// TestClosedLoop checks warm-up exclusion and failure counting, by time
// and by count.
func TestClosedLoop(t *testing.T) {
	n := 0
	res := closedLoop(1, 1, 20*time.Millisecond, 40*time.Millisecond, func(int, *rand.Rand) error {
		n++
		time.Sleep(time.Millisecond)
		if n%10 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if res.Attempted >= n || res.Attempted < 10 {
		t.Errorf("%d calls, %d counted: warm-up calls must be excluded", n, res.Attempted)
	}
	if res.Failed == 0 || res.FirstErr == nil {
		t.Error("failures were not counted")
	}
	if got := res.Lat.quantile(0.5); got < 1 || got > 20 {
		t.Errorf("median latency %.3f ms for a 1 ms op", got)
	}
	counted := countedLoop(3, 5, func(i int) error {
		if i == 4 {
			return errors.New("boom")
		}
		return nil
	})
	if counted.Attempted != 5 || len(counted.Lat) != 5 || counted.Failed != 1 {
		t.Errorf("countedLoop: attempted %d, %d samples, %d failed", counted.Attempted, len(counted.Lat), counted.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}
