package stream

// Durable sessions: the WAL + segment + manifest layer (internal/segment)
// wired into the live ingestion path.
//
// Write path: every sealed batch is framed into the WAL *before* it is
// applied to the in-memory backend, under the same write lock, with the
// same replay-on-failure contract appends already have — a WAL error
// stashes the sealed events exactly like a failed append, and the retry
// rewrites the frame under the same commit sequence (replay keeps the
// last of an equal-seq run, so the retried superset wins). The committed
// sequence advances only after the in-memory apply succeeds.
//
// Flush path: every SegmentEvery sealed batches (and on clean Close)
// each role — the single store, or the global store plus every shard
// partition — writes one segment holding only what was appended since
// its newest live segment, so a flush costs O(delta), not O(store). When
// that delta and the role's newest live segments fill a size tier
// (mergeFanIn segments of one tier, or a smaller segment left behind a
// larger delta), the role writes their union instead, dumped from the
// in-memory store; a role's live list therefore stays a staircase of
// tiers, at most mergeFanIn-1 per tier. One manifest commit names every
// role's new live list and the WAL replay floor. The manifest rename is
// the only commit point: a crash or error anywhere before it leaves the
// old live set fully intact — for a sharded store that means a partial
// flush (three of four partitions written) rolls back fleet-wide, since
// the orphaned files are never referenced and are swept later, and a
// merge that dies before its commit leaves the segments it would have
// replaced live. Flush errors never fail ingestion; they surface through
// OnSegmentFlush, the WAL keeps growing, and the flush is retried after
// another SegmentEvery batches.
//
// Recovery (OpenDurable): read the manifest, validate and decode every
// segment, fold each role's live list — contiguous ranges, checked — into
// one image, rebuild the stores by direct arena restoration, then replay
// the WAL tail above the floor. A torn tail is truncated silently (the
// expected shape of a crash mid-append); mid-file corruption refuses
// startup unless RecoverCorrupt degrades to the last consistent prefix.

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"threatraptor/internal/audit"
	"threatraptor/internal/segment"
)

// Durability configures the crash-safe storage layer of a session opened
// with OpenDurable. The zero value (empty Dir) means "not durable".
type Durability struct {
	// Dir is the data directory holding the WAL, segment files, and
	// manifest. Created if absent.
	Dir string
	// Fsync is the WAL fsync policy: segment.FsyncAlways (default — every
	// appended frame is durable before the batch applies), FsyncBatch
	// (fsync only at segment-flush boundaries and Close), or FsyncOff.
	Fsync string
	// SegmentEvery flushes the batches sealed since the last flush as a
	// new segment generation every N sealed batches (default 64); a failed
	// flush is retried N batches later. Clean Close always flushes.
	SegmentEvery int
	// RecoverCorrupt opts into degraded recovery: mid-file WAL corruption
	// truncates to the last consistent prefix (reported in RecoveryStats)
	// instead of refusing startup. Segment and manifest corruption always
	// refuse — there is no prefix to degrade to.
	RecoverCorrupt bool
	// OnWALFsync, when set, observes every WAL fsync duration (metrics).
	OnWALFsync func(time.Duration)
	// OnSegmentFlush, when set, observes every segment flush attempt,
	// successful or not (metrics).
	OnSegmentFlush func(FlushStats)
}

func (d Durability) withDefaults() (Durability, error) {
	if d.Fsync == "" {
		d.Fsync = segment.FsyncAlways
	}
	if !segment.ValidFsyncPolicy(d.Fsync) {
		return d, fmt.Errorf("stream: unknown fsync policy %q (want always, batch, or off)", d.Fsync)
	}
	if d.SegmentEvery <= 0 {
		d.SegmentEvery = 64
	}
	return d, nil
}

// FlushStats summarizes one segment flush attempt.
type FlushStats struct {
	// ManifestSeq is the committed flush generation (0 when Err is set).
	ManifestSeq int64
	// Segments is how many live segment files the committed manifest
	// names, across every role.
	Segments int
	// Written is how many segment files this flush wrote (one per role;
	// a merge replaces the role's delta with the union it writes).
	Written int
	// Bytes is the encoded size of the files this flush wrote.
	Bytes int64
	// Took is the wall time of the whole flush.
	Took time.Duration
	// Err is the failure, if any; the previous generation stays live.
	Err error
}

// RecoveryStats reports what OpenDurable found and rebuilt.
type RecoveryStats struct {
	// Recovered is true when a committed manifest existed (segments were
	// loaded); false for a first start (possibly with a WAL-only replay).
	Recovered bool
	// ManifestSeq is the recovered flush generation.
	ManifestSeq int64
	// Segments is how many segment files were validated and folded.
	Segments int
	// WALFloor is the manifest's replay floor (frames at or below it were
	// skipped).
	WALFloor uint64
	// ReplayedRecords / ReplayedEvents / ReplayedEntities count the WAL
	// tail applied on top of the segments.
	ReplayedRecords  int
	ReplayedEvents   int
	ReplayedEntities int
	// TornTailTruncated is true when a partial final frame was discarded
	// (crash during append — expected, not corruption).
	TornTailTruncated bool
	// DroppedFrames counts consistent-looking data discarded past a
	// mid-file corruption under RecoverCorrupt (always 0 without it).
	DroppedFrames int
}

// DurableBackend is the backend surface a durable session additionally
// needs: dumping one store of the fleet as a range segment image, and
// naming the sharding topology the manifest records. Both the single
// engine backend and the sharded coordinator implement it.
type DurableBackend interface {
	Backend
	// DumpRange dumps role r of the fleet from base to its current
	// frontier: role 0 is "global" (the single store, or the sharded
	// global store, with entities), role i+1 is partition "p<i>". Called
	// under the session write lock.
	DumpRange(role int, from segment.Base) *segment.Image
	// Topology names the sharding layout for the manifest.
	Topology() segment.Topology
}

// roleNames lists a topology's segment roles in DumpRange order.
func roleNames(t segment.Topology) []string {
	roles := []string{segment.RoleGlobal}
	for i := 0; i < t.Shards; i++ {
		roles = append(roles, segment.PartitionRole(i))
	}
	return roles
}

// mergeFanIn is how many same-tier segments a flush merges into one.
const mergeFanIn = 4

// liveSeg is one committed segment of a role's live list.
type liveSeg struct {
	file      string
	from, end segment.Base
	rows      int64 // entity + event rows, the size its tier is taken from
}

func liveSegOf(file string, img *segment.Image) liveSeg {
	return liveSeg{file: file, from: img.Base, end: img.End(), rows: img.Rows()}
}

// tier is a segment's size tier: factor-of-4 bands of row counts, so
// mergeFanIn segments of one tier merge into one of the next.
func tier(rows int64) int { return bits.Len64(uint64(rows)) / 2 }

// absorbed returns how many of a role's newest live segments (live is
// oldest first) a flush whose delta holds rows rows folds into the one
// segment it writes. The newest live segment is absorbed while it sits
// in a lower tier than the segment being written — a short delta, such
// as a clean shutdown's, never strands below the larger ones after it —
// and the newest mergeFanIn-1 are absorbed when they share its tier. A
// role's live list therefore stays a staircase of tiers, largest first,
// with at most mergeFanIn-1 segments per tier.
func absorbed(live []liveSeg, rows int64) int {
	k := 0
	for i := len(live) - 1; i >= 0; {
		t := tier(rows)
		if tier(live[i].rows) < t {
			rows += live[i].rows
			k, i = k+1, i-1
			continue
		}
		if i < mergeFanIn-2 {
			return k
		}
		run := live[i-(mergeFanIn-2) : i+1]
		for _, sg := range run {
			if tier(sg.rows) != t {
				return k
			}
		}
		for _, sg := range run {
			rows += sg.rows
		}
		k, i = k+len(run), i-len(run)
	}
	return k
}

// durable is a session's durability state. All fields are guarded by the
// session write lock.
type durable struct {
	cfg         Durability
	wal         *segment.WAL
	backend     DurableBackend
	seq         uint64      // last batch sequence applied in memory
	manifestSeq int64       // last committed flush generation
	sinceFlush  int         // sealed batches since the last flush attempt
	roles       []string    // segment roles, in DumpRange order
	live        [][]liveSeg // per role: the committed live segments, oldest first
}

// nextImage dumps role r's next segment: the delta since its newest live
// segment or, when that delta tips the newest live segments into a merge,
// their union, dumped from the in-memory store (the delta's dump, O(delta),
// is what sizes the decision). It also returns how many live segments
// the image replaces.
func (d *durable) nextImage(r int) (*segment.Image, int) {
	live := d.live[r]
	var from segment.Base
	if len(live) > 0 {
		from = live[len(live)-1].end
	}
	img := d.backend.DumpRange(r, from)
	k := absorbed(live, img.Rows())
	if k > 0 {
		img = d.backend.DumpRange(r, live[len(live)-k].from)
	}
	return img, k
}

// logBatch frames the batch into the WAL before the in-memory apply. The
// frame carries seq+1; seq itself advances only after the apply succeeds,
// so a failure anywhere here (or in the apply) retries under the same
// sequence.
func (d *durable) logBatch(entities []*audit.Entity, events []audit.Event) error {
	if err := d.wal.Append(segment.EncodeRecord(d.seq+1, entities, events)); err != nil {
		return err
	}
	if d.cfg.Fsync == segment.FsyncAlways {
		t0 := time.Now()
		if err := d.wal.Sync(); err != nil {
			return err
		}
		if d.cfg.OnWALFsync != nil {
			d.cfg.OnWALFsync(time.Since(t0))
		}
	}
	return nil
}

// flushSegmentsLocked writes one segment per role — the role's delta, or
// a merge — and commits the new live lists as one generation. Errors
// leave the previous generation (and the whole WAL) intact and are
// reported only through OnSegmentFlush — a failed flush must not fail
// ingestion, and it is retried only after another SegmentEvery batches,
// not on every batch while the disk stays faulty.
func (s *Session) flushSegmentsLocked() error {
	d := s.dur
	d.sinceFlush = 0
	t0 := time.Now()
	report := func(st FlushStats) error {
		st.Took = time.Since(t0)
		if d.cfg.OnSegmentFlush != nil {
			d.cfg.OnSegmentFlush(st)
		}
		return st.Err
	}
	// Under the batch fsync policy the frames since the last flush have
	// never been synced; make them durable first, so even a flush that
	// fails past this point leaves every applied batch recoverable.
	if d.cfg.Fsync != segment.FsyncOff {
		ft := time.Now()
		if err := d.wal.Sync(); err != nil {
			return report(FlushStats{Err: err})
		}
		if d.cfg.OnWALFsync != nil {
			d.cfg.OnWALFsync(time.Since(ft))
		}
	}
	gen := d.manifestSeq + 1
	topo := d.backend.Topology()
	m := &segment.Manifest{
		Seq:         gen,
		WALFloor:    d.seq,
		Shards:      topo.Shards,
		Partitioner: topo.PartitionBy,
	}
	var st FlushStats
	next := make([][]liveSeg, len(d.roles))
	for r, role := range d.roles {
		img, k := d.nextImage(r)
		name := segment.SegmentFileName(gen, role)
		n, err := segment.WriteSegment(d.cfg.Dir, name, img)
		if err != nil {
			// Files already written this generation are unreferenced
			// garbage; the next successful flush sweeps them.
			return report(FlushStats{Err: err})
		}
		st.Written++
		st.Bytes += n
		kept := d.live[r][:len(d.live[r])-k]
		next[r] = append(kept[:len(kept):len(kept)], liveSegOf(name, img))
		for _, sg := range next[r] {
			m.Segments = append(m.Segments, segment.SegmentRef{Role: role, File: sg.file})
		}
	}
	if err := segment.WriteManifest(d.cfg.Dir, m); err != nil {
		return report(FlushStats{Err: err})
	}
	// Committed: every applied batch is covered by the new generation
	// (floor == seq), so the whole WAL is garbage-collectable, and the
	// segments a merge replaced are stale.
	d.manifestSeq, d.live = gen, next
	st.ManifestSeq, st.Segments = gen, len(m.Segments)
	if err := d.wal.Truncate(0); err != nil {
		// Not a consistency problem — stale frames at or below the floor
		// are skipped on replay — but worth surfacing.
		st.Err = err
		return report(st)
	}
	_ = segment.RemoveStale(d.cfg.Dir, m)
	return report(st)
}

// OpenDurable opens a crash-safe session over cfg.Durability.Dir. When
// the directory holds a committed manifest, the fleet is rebuilt from the
// segment files via fromImages and the WAL tail above the manifest floor
// is replayed; otherwise fresh supplies an empty (or preloaded) backend
// and any leftover WAL from a crash before the first flush is replayed
// onto it. Both callbacks receive ownership of nothing until OpenDurable
// returns nil error.
//
// Corruption semantics: a damaged manifest or segment always refuses
// startup (*segment.CorruptError); a torn WAL tail is truncated silently;
// mid-file WAL corruption refuses startup unless Durability.RecoverCorrupt,
// which degrades to the last consistent prefix and reports the loss in
// RecoveryStats.
func OpenDurable(
	cfg Config,
	fresh func() (DurableBackend, error),
	fromImages func(imgs []segment.RoleImage, topo segment.Topology) (DurableBackend, error),
) (*Session, RecoveryStats, error) {
	var rs RecoveryStats
	dcfg, err := cfg.Durability.withDefaults()
	if err != nil {
		return nil, rs, err
	}
	if dcfg.Dir == "" {
		return nil, rs, fmt.Errorf("stream: OpenDurable needs Durability.Dir")
	}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		return nil, rs, err
	}

	var backend DurableBackend
	var floor uint64
	var manifestSeq int64
	var live map[string][]liveSeg
	if segment.Exists(dcfg.Dir) {
		m, err := segment.ReadManifest(dcfg.Dir)
		if err != nil {
			return nil, rs, err
		}
		var imgs []segment.RoleImage
		if imgs, live, err = openLiveSets(dcfg.Dir, m); err != nil {
			return nil, rs, err
		}
		backend, err = fromImages(imgs, segment.Topology{Shards: m.Shards, PartitionBy: m.Partitioner})
		if err != nil {
			return nil, rs, err
		}
		rs.Recovered = true
		rs.ManifestSeq, rs.Segments, rs.WALFloor = m.Seq, len(m.Segments), m.WALFloor
		floor, manifestSeq = m.WALFloor, m.Seq
	} else {
		if backend, err = fresh(); err != nil {
			return nil, rs, err
		}
	}

	// Replay the WAL tail. The records re-enter through the same
	// AppendBatch path live ingestion uses, so IDs, indexes, adjacency,
	// and snapshots come out exactly as they would have without the crash.
	seq := floor
	data, err := segment.ReadWAL(dcfg.Dir)
	if err != nil {
		return nil, rs, err
	}
	truncateAt := int64(-1)
	if len(data) > 0 {
		res, err := segment.ScanFrames(data, floor, dcfg.RecoverCorrupt)
		if err != nil {
			return nil, rs, err
		}
		truncateAt = res.TruncateAt
		rs.TornTailTruncated = res.TornTail
		rs.DroppedFrames = res.Dropped
		for _, rec := range res.Records {
			for _, e := range rec.Entities {
				if err := backend.EntityTable().AdoptNew(e); err != nil {
					return nil, rs, fmt.Errorf("stream: wal replay seq %d: %w", rec.Seq, err)
				}
			}
			if err := backend.AppendBatch(rec.Entities, rec.Events); err != nil {
				return nil, rs, fmt.Errorf("stream: wal replay seq %d: %w", rec.Seq, err)
			}
			rs.ReplayedRecords++
			rs.ReplayedEvents += len(rec.Events)
			rs.ReplayedEntities += len(rec.Entities)
			seq = rec.Seq
		}
	}

	wal, err := segment.OpenWAL(dcfg.Dir)
	if err != nil {
		return nil, rs, err
	}
	if truncateAt >= 0 {
		if err := wal.Truncate(truncateAt); err != nil {
			wal.Close()
			return nil, rs, err
		}
	}

	// The session proper starts only now: the backend already holds the
	// recovered state, so NewWithBackend's entity frontier and tactical
	// catch-up round see it exactly like a preloaded store.
	s := NewWithBackend(backend, cfg)
	d := &durable{
		cfg:         dcfg,
		wal:         wal,
		backend:     backend,
		seq:         seq,
		manifestSeq: manifestSeq,
		roles:       roleNames(backend.Topology()),
	}
	d.live = make([][]liveSeg, len(d.roles))
	for r, role := range d.roles {
		d.live[r] = live[role]
	}
	s.dur = d
	return s, rs, nil
}

// openLiveSets decodes the manifest's segments and folds each role's live
// list, in manifest order, into the one image its store is restored from.
// It also returns each role's live list, which the next flushes extend.
func openLiveSets(dir string, m *segment.Manifest) ([]segment.RoleImage, map[string][]liveSeg, error) {
	var roles []string
	byRole := map[string][]*segment.Image{}
	live := map[string][]liveSeg{}
	for _, ref := range m.Segments {
		img, err := segment.OpenSegment(filepath.Join(dir, ref.File))
		if err != nil {
			return nil, nil, err
		}
		if byRole[ref.Role] == nil {
			roles = append(roles, ref.Role)
		}
		byRole[ref.Role] = append(byRole[ref.Role], img)
		live[ref.Role] = append(live[ref.Role], liveSegOf(ref.File, img))
	}
	imgs := make([]segment.RoleImage, 0, len(roles))
	for _, role := range roles {
		img, err := segment.Fold(byRole[role])
		if err != nil {
			return nil, nil, fmt.Errorf("stream: role %q live segments: %w", role, err)
		}
		imgs = append(imgs, segment.RoleImage{Role: role, Image: img})
	}
	return imgs, live, nil
}
