// Package segment is the durable storage layer: a write-ahead log of
// sealed ingestion batches plus immutable, checksummed columnar segment
// files, tied together by an atomically-renamed manifest.
//
// The on-disk contract is crash consistency by construction. Every sealed
// batch is framed into the WAL (length-prefixed, CRC32C over the payload)
// before it is applied to the in-memory store, so a crash at any point
// loses at most the batch being written. A segment file covers a range
// of the store's append order — the entities and events appended between
// two flushes, as typed column vectors plus the range's graph adjacency,
// each section independently checksummed — so every K batches a flush
// writes only what was sealed since the previous one (or, when a role's
// newest segments fill a size tier, one segment over their union), and
// the manifest is swapped (tmp + rename + directory fsync) to name the
// new live segment list and the WAL replay floor. Recovery validates
// checksums, folds each role's contiguous ranges into one image that the
// store adopts directly (no log reparsing), and replays the WAL tail:
// a torn tail (crash mid-append) is truncated and ingestion continues,
// while a checksum failure with valid frames beyond it is bit rot and
// refuses startup unless the operator opts into degrading to the last
// consistent prefix.
package segment

import (
	"errors"
	"fmt"
	"hash/crc32"

	"threatraptor/internal/audit"
)

// Fault-point names for the faultinject harness, covering every disk
// transition of the durability path.
const (
	// FaultWALAppend fires before a WAL frame is written.
	FaultWALAppend = "segment/wal-append"
	// FaultWALSync fires inside WAL fsync, after the frame write — a
	// ModePanic here models a crash after the record is durable but
	// before the in-memory apply.
	FaultWALSync = "segment/wal-sync"
	// FaultSegmentFlush fires before a segment file is written.
	FaultSegmentFlush = "segment/segment-write"
	// FaultManifestRename fires before the manifest tmp file is renamed
	// over MANIFEST — the commit point of a flush.
	FaultManifestRename = "segment/manifest-rename"
	// FaultRecoveryRead fires on every recovery-time read (manifest,
	// segment, WAL).
	FaultRecoveryRead = "segment/recovery-read"
)

// ErrCorrupt is the sentinel wrapped by every checksum or structural
// validation failure, so callers can errors.Is regardless of which file
// or section failed.
var ErrCorrupt = errors.New("segment: corrupt data")

// CorruptError reports a validation failure at a byte offset of a
// durable file. It wraps ErrCorrupt.
type CorruptError struct {
	// File names what was being read ("wal", "segment", "manifest", or a
	// path).
	File string
	// Offset is the byte offset of the failed frame or section.
	Offset int64
	// Reason describes the failure.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("segment: corrupt %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) true.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// castagnoli is the CRC32C table used for every checksum on disk.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Base is where a segment's range starts in a store's append order: its
// entity rows are IDs Entity+1, Entity+2, ... and its events have IDs in
// [Event, NextEventID). The zero Base starts a full image.
type Base struct {
	Entity int64
	Event  int64
}

// Image is the in-memory form of one segment: the decoded column
// vectors a store restores its arenas from directly. The store open path
// adopts the slices (zero-copy where the layout allows); an Image must
// not be reused after being handed to a store.
type Image struct {
	// Base opens the range the image covers (zero for a full image); the
	// range ends at End().
	Base Base
	// NextEventID is the store's event-ID frontier at dump time.
	NextEventID int64
	// MinTime/MaxTime are the store's event-time bounds (µs) at dump time.
	MinTime int64
	MaxTime int64
	// Nodes is the store's graph node count at dump time. For a partition
	// image this exceeds len(Entities): partitions hold every entity but
	// only their routed events.
	Nodes int
	// Entities is the range's dense entity slice (ID Base.Entity+i+1 at
	// offset i), rebuilt from EntityCols on decode. Nil for partition
	// images, which share the global image's entities.
	Entities []*audit.Entity
	// EntityCols are the decoded entity columns, kept so the relational
	// restore can adopt them without re-extracting from Entities. Nil for
	// partition images.
	EntityCols *EntityCols
	// Events are the event columns in ID order (a partition image holds
	// only its routed events, with gaps in the global ID sequence).
	Events EventCols
	// Adj is the range's graph adjacency: edge offsets index Events.
	Adj AdjCSR
}

// End is where the image's range ends: the Base of the range that
// follows it.
func (img *Image) End() Base {
	return Base{Entity: img.Base.Entity + int64(len(img.Entities)), Event: img.NextEventID}
}

// Rows is the image's size in entity plus event rows.
func (img *Image) Rows() int64 { return int64(len(img.Entities) + len(img.Events.ID)) }

// EntityCols are the columnarized entity attributes, one row per entity
// in ID order. Integer columns hold zero and string columns hold "" at
// rows whose kind does not carry the attribute.
type EntityCols struct {
	Kind                  []uint8
	PID, SrcPort, DstPort []int64
	Name, Path, User, Group, Exe, Cmd,
	SrcIP, DstIP, Protocol, Host []string
}

// strCols returns the ten entity string columns in their fixed on-disk
// order.
func (c *EntityCols) strCols() [10]*[]string {
	return [10]*[]string{&c.Name, &c.Path, &c.User, &c.Group, &c.Exe,
		&c.Cmd, &c.SrcIP, &c.DstIP, &c.Protocol, &c.Host}
}

// intCols returns the three entity integer columns in on-disk order.
func (c *EntityCols) intCols() [3]*[]int64 {
	return [3]*[]int64{&c.PID, &c.SrcPort, &c.DstPort}
}

// EventCols are the columnarized event attributes, one row per event.
type EventCols struct {
	ID, Subject, Object, Start, End, Amount, Failure []int64
	Op                                               []uint8
}

// intCols returns the seven event integer columns in on-disk order.
func (e *EventCols) intCols() [7]*[]int64 {
	return [7]*[]int64{&e.ID, &e.Subject, &e.Object, &e.Start, &e.End, &e.Amount, &e.Failure}
}

// AdjCSR is graph adjacency in sparse compressed-row form: OutNodes
// lists, ascending, the node offsets (node ID - 1) that own a non-empty
// outgoing list, and node OutNodes[i] owns Out[sum(OutCounts[:i]) :
// +OutCounts[i]] — 0-based edge offsets in the graph's canonical
// (start time, offset) order. In is the same for incoming lists. Only
// nodes with edges are listed, so a range's adjacency costs O(range),
// not O(nodes).
type AdjCSR struct {
	OutNodes, OutCounts, Out []int32
	InNodes, InCounts, In    []int32
}

// RoleGlobal is the segment role of the full (unsharded-equivalent)
// store; shard partitions use PartitionRole.
const RoleGlobal = "global"

// PartitionRole names shard partition i's segment role ("p0", "p1", ...).
func PartitionRole(i int) string { return fmt.Sprintf("p%d", i) }

// RoleImage pairs a segment role with its image: role "global" is the
// full store, "p0".."pN-1" are shard partitions.
type RoleImage struct {
	Role  string
	Image *Image
}

// Topology records how a persisted store was sharded, so recovery can
// rebuild the same layout and refuse a mismatched configuration.
type Topology struct {
	// Shards is the partition count (0 for an unsharded store).
	Shards int
	// PartitionBy names the partitioning rule ("time:1h0m0s"); empty
	// for an unsharded store.
	PartitionBy string
}

// BuildEntityCols columnarizes a dense entity slice for encoding.
func BuildEntityCols(dense []*audit.Entity) *EntityCols {
	n := len(dense)
	c := &EntityCols{
		Kind: make([]uint8, n), PID: make([]int64, n), SrcPort: make([]int64, n), DstPort: make([]int64, n),
		Name: make([]string, n), Path: make([]string, n), User: make([]string, n), Group: make([]string, n),
		Exe: make([]string, n), Cmd: make([]string, n), SrcIP: make([]string, n), DstIP: make([]string, n),
		Protocol: make([]string, n), Host: make([]string, n),
	}
	for i, e := range dense {
		c.Kind[i] = uint8(e.Kind)
		switch e.Kind {
		case audit.EntityFile:
			f := e.File
			c.Name[i], c.Path[i], c.User[i], c.Group[i], c.Host[i] = f.Name, f.Path, f.User, f.Group, f.Host
		case audit.EntityProcess:
			p := e.Proc
			c.PID[i] = int64(p.PID)
			c.Exe[i], c.User[i], c.Group[i], c.Cmd[i], c.Host[i] = p.ExeName, p.User, p.Group, p.CMD, p.Host
		case audit.EntityNetConn:
			nc := e.Net
			c.SrcPort[i], c.DstPort[i] = int64(nc.SrcPort), int64(nc.DstPort)
			c.SrcIP[i], c.DstIP[i], c.Protocol[i] = nc.SrcIP, nc.DstIP, nc.Protocol
		}
	}
	return c
}

// buildEntities rebuilds the dense *Entity slice from decoded columns,
// slab-allocating the per-kind attribute structs; row i is ID base+i+1.
func buildEntities(c *EntityCols, base int64) []*audit.Entity {
	n := len(c.Kind)
	var nf, np, nn int
	for _, k := range c.Kind {
		switch audit.EntityKind(k) {
		case audit.EntityFile:
			nf++
		case audit.EntityProcess:
			np++
		case audit.EntityNetConn:
			nn++
		}
	}
	slab := make([]audit.Entity, n)
	files := make([]audit.File, nf)
	procs := make([]audit.Process, np)
	nets := make([]audit.NetConn, nn)
	out := make([]*audit.Entity, n)
	fi, pi, ni := 0, 0, 0
	for i := 0; i < n; i++ {
		e := &slab[i]
		e.ID = base + int64(i) + 1
		e.Kind = audit.EntityKind(c.Kind[i])
		switch e.Kind {
		case audit.EntityFile:
			f := &files[fi]
			fi++
			f.Name, f.Path, f.User, f.Group, f.Host = c.Name[i], c.Path[i], c.User[i], c.Group[i], c.Host[i]
			e.File = f
		case audit.EntityProcess:
			p := &procs[pi]
			pi++
			p.PID = int(c.PID[i])
			p.ExeName, p.User, p.Group, p.CMD, p.Host = c.Exe[i], c.User[i], c.Group[i], c.Cmd[i], c.Host[i]
			e.Proc = p
		case audit.EntityNetConn:
			nc := &nets[ni]
			ni++
			nc.SrcIP, nc.DstIP, nc.Protocol = c.SrcIP[i], c.DstIP[i], c.Protocol[i]
			nc.SrcPort, nc.DstPort = int(c.SrcPort[i]), int(c.DstPort[i])
			e.Net = nc
		}
		out[i] = e
	}
	return out
}
