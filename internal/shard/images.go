package shard

// Segment dump and restore for the sharded store. The fleet persists as
// one segment role per store: "global" (with the entity table) plus one
// per partition (events and adjacency only — partitions share the global
// entities); every flush dumps each role's range since its previous
// segment. Restore rebuilds each store from its role's folded image by
// direct arena restoration over the shared entity slab, so a recovered
// coordinator is indistinguishable from one built by New over the same
// input.

import (
	"fmt"
	"sync/atomic"

	"threatraptor/internal/audit"
	"threatraptor/internal/engine"
	"threatraptor/internal/segment"
)

// DumpRange dumps one store of the fleet from base: role 0 is the global
// store, with entities, and role i+1 is partition i ("p<i>"), without —
// partitions share the global image's entity slab. Writer-side only (the
// stream session calls it under its write lock, serialized against
// AppendBatch).
func (s *Store) DumpRange(role int, from segment.Base) *segment.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	if role == 0 {
		return engine.DumpRange(s.global, true, from)
	}
	return engine.DumpRange(s.shards[role-1].store, false, from)
}

// Topology names the sharding layout for the manifest.
func (s *Store) Topology() segment.Topology {
	return segment.Topology{Shards: len(s.shards), PartitionBy: SliceName(s.sliceUS)}
}

// OpenImages rebuilds a sharded store from one recovered image per role
// (its live segments folded): the "global" image supplies the entity
// slab and the authoritative store, and each "p<i>" image restores its
// partition over the same shared entity table. sliceUS must be the slice
// width the store was dumped under (the manifest records its SliceName);
// shards is the expected partition count.
func OpenImages(imgs []segment.RoleImage, shards int, sliceUS int64) (*Store, error) {
	if shards < 1 {
		shards = 1
	}
	if sliceUS <= 0 {
		sliceUS = defaultSliceUS
	}
	byRole := make(map[string]*segment.Image, len(imgs))
	for _, ri := range imgs {
		byRole[ri.Role] = ri.Image
	}
	gimg := byRole[segment.RoleGlobal]
	if gimg == nil {
		return nil, fmt.Errorf("shard: segment generation has no %q image", segment.RoleGlobal)
	}
	if len(byRole) != shards+1 {
		return nil, fmt.Errorf("shard: segment generation holds %d images, topology wants %d partitions + global", len(imgs), shards)
	}
	table := audit.RestoreTable(gimg.Entities)
	global, err := engine.OpenStore(gimg, gimg.EntityCols, gimg.Entities, table)
	if err != nil {
		return nil, err
	}
	s := &Store{
		sliceUS:      sliceUS,
		global:       global,
		globalEngine: &engine.Engine{Store: global},
		shards:       make([]*partition, shards),
	}
	for i := 0; i < shards; i++ {
		pimg := byRole[segment.PartitionRole(i)]
		if pimg == nil {
			return nil, fmt.Errorf("shard: segment generation is missing partition %q", segment.PartitionRole(i))
		}
		st, err := engine.OpenStore(pimg, gimg.EntityCols, gimg.Entities, table)
		if err != nil {
			return nil, fmt.Errorf("shard: partition %d: %w", i, err)
		}
		s.shards[i] = &partition{
			store:  st,
			engine: &engine.Engine{Store: st},
			opMask: maskOf(st.Log.Events),
		}
	}
	s.fanout = make([]atomic.Int64, shards+1)
	s.publishLocked()
	return s, nil
}
