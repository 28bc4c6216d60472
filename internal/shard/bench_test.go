package shard

import (
	"fmt"
	"reflect"
	"testing"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/tbql"
)

// fleetLog builds the scan-throughput workload: a 4-host fleet of worker
// processes with mult×2500 actions of dense historical activity, a quiet
// ten-second gap, and a small burst of recent activity. A trailing-window
// hunt over this store is probe-bound — the worker anchor matches events
// across the whole dense history, so the single store's subject-index
// probes walk every historical event and discard the out-of-window ones,
// while time partitions confine the routed probe to the newest slices.
func fleetLog(tb testing.TB, mult int) *audit.Log {
	tb.Helper()
	sim := audit.NewSimulator(7, 1_700_000_000_000_000)
	var procs []audit.Proc
	for h := 0; h < 4; h++ {
		for w := 0; w < 2; w++ {
			procs = append(procs, audit.Proc{
				PID: 3000 + h*10 + w, Exe: fmt.Sprintf("/usr/bin/worker%d", w),
				User: "svc", Group: "svc", Host: fmt.Sprintf("host-%d", h),
			})
		}
	}
	emit := func(i int) {
		p := procs[i%len(procs)]
		if i%20 == 19 {
			sim.WriteFile(p, "/var/log/worker.log", 100)
		} else {
			sim.ReadFile(p, fmt.Sprintf("/srv/%s/data%d.bin", p.Host, i%4), 100)
		}
		sim.Advance(1500)
	}
	for i := 0; i < mult*2500; i++ {
		emit(i)
	}
	sim.Advance(10_000_000)
	for i := 0; i < 40; i++ {
		emit(i)
	}
	log, err := audit.ParseRecords(sim.Records())
	if err != nil {
		tb.Fatal(err)
	}
	return log
}

// fleetWindowTBQL hunts read-then-log-write chains in the trailing
// window.
func fleetWindowTBQL(winSec int64) string {
	return fmt.Sprintf(`last %d second
proc p["%%worker%%"] read file f1 as evt1
proc p write file f2["%%worker.log%%"] as evt2
with evt1 before evt2
return distinct p, f1, f2`, winSec)
}

// fleetSlice picks the time-slice width: an eighth of the store's span,
// nudged down until the trailing window sits inside the newest absolute
// slice (slices cut at multiples of the width, so the newest boundary
// must fall at least winUS before the store max).
func fleetSlice(ref *engine.Store, winUS int64) int64 {
	sliceUS := (ref.MaxTime-ref.MinTime)/8 + 1
	for ref.MaxTime%sliceUS < winUS {
		sliceUS -= winUS / 2
	}
	return sliceUS
}

// BenchmarkShardedHunt measures the trailing-window fleet hunt on the 8×
// preload store: the single-store path vs the scatter-gather path at
// 1/2/4 time-slice shards. The window routes to the partition holding the
// newest slice, which also holds only every n-th historical slice — so
// the hunt's probe volume drops with shard count (the routing-prune
// speedup; concurrent per-shard scans add on top when cores are spare).
// Every configuration is pinned to the unsharded row set before timing.
func BenchmarkShardedHunt(b *testing.B) {
	log := fleetLog(b, 8)
	ref, err := engine.NewStore(log)
	if err != nil {
		b.Fatal(err)
	}
	const winUS = 1_000_000
	sliceUS := fleetSlice(ref, winUS)
	q, err := tbql.Parse(fleetWindowTBQL(winUS / 1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	a, err := tbql.Analyze(q)
	if err != nil {
		b.Fatal(err)
	}
	refEn := &engine.Engine{Store: ref}
	res, _, err := refEn.Execute(nil, a)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Set.Rows) == 0 {
		b.Fatal("fleet hunt matched nothing; the benchmark is vacuous")
	}
	want := sortedRows(res.Set.Strings())

	b.Run("unsharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := refEn.Execute(nil, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) {
			sh, err := New(log, n, sliceUS)
			if err != nil {
				b.Fatal(err)
			}
			sres, _, err := sh.Execute(nil, a)
			if err != nil {
				b.Fatal(err)
			}
			if got := sortedRows(sres.Set.Strings()); !reflect.DeepEqual(got, want) {
				b.Fatalf("sharded rows differ from unsharded:\ngot  %v\nwant %v", got, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sh.Execute(nil, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
