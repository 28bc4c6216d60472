package segment

// Segment file format. A segment is a sequence of independently
// checksummed sections after an 8-byte header:
//
//	[magic "TRSG"][u32 version]
//	repeated: [u32 sectionID][u32 len][u32 crc32c(payload)][payload]
//
// Sections appear in fixed order (meta, entities, events, adjacency);
// all integers are little-endian. The ten entity string columns share
// one offsets array (10n+1 u32 values) and one byte blob, so decoding
// every string in the segment costs a single string conversion plus one
// header write per value.
//
// Version 2 records the range a segment covers (meta gains the entity
// and event bases) and stores adjacency sparsely — only nodes with edges
// in the range — so a delta segment's size follows the delta, not the
// store. Version 1 files (full images, dense per-node counts) still
// decode, as ranges starting at zero.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"threatraptor/internal/audit"
	"threatraptor/internal/faultinject"
)

const (
	segMagic   = "TRSG"
	segVersion = 2

	secMeta      = 1
	secEntities  = 2
	secEvents    = 3
	secAdjacency = 4
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// appendStrCols encodes string columns as one shared offsets array (one
// leading 0 then a running end offset per value, column-major) followed
// by one concatenated blob.
func appendStrCols(b []byte, cols [10]*[]string) []byte {
	off := uint32(0)
	b = appendU32(b, off)
	for _, col := range cols {
		for _, s := range *col {
			off += uint32(len(s))
			b = appendU32(b, off)
		}
	}
	for _, col := range cols {
		for _, s := range *col {
			b = append(b, s...)
		}
	}
	return b
}

// appendSection frames payload (built since mark) as a section in place:
// the caller reserves the 12-byte header with beginSection, fills the
// payload, then endSection patches length and checksum.
func beginSection(b []byte, id uint32) ([]byte, int) {
	b = appendU32(b, id)
	b = appendU32(b, 0) // len, patched
	b = appendU32(b, 0) // crc, patched
	return b, len(b)
}

func endSection(b []byte, payloadStart int) []byte {
	payload := b[payloadStart:]
	binary.LittleEndian.PutUint32(b[payloadStart-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[payloadStart-4:], crc32.Checksum(payload, castagnoli))
	return b
}

// Encode serializes an image into the segment file format. If
// img.EntityCols is nil and img.Entities is non-nil the columns are
// built first; a partition image (both nil) encodes an empty entities
// section.
func Encode(img *Image) []byte {
	cols := img.EntityCols
	if cols == nil && img.Entities != nil {
		cols = BuildEntityCols(img.Entities)
	}
	b := make([]byte, 0, encodedSizeHint(img, cols))
	b = append(b, segMagic...)
	b = appendU32(b, segVersion)

	// meta
	b, start := beginSection(b, secMeta)
	nEnt := 0
	if cols != nil {
		nEnt = len(cols.Kind)
	}
	b = appendI64s(b, []int64{img.NextEventID, img.MinTime, img.MaxTime,
		int64(nEnt), int64(len(img.Events.ID)), int64(img.Nodes),
		img.Base.Entity, img.Base.Event})
	b = endSection(b, start)

	// entities
	b, start = beginSection(b, secEntities)
	b = appendU32(b, uint32(nEnt))
	if cols != nil {
		b = append(b, cols.Kind...)
		for _, col := range cols.intCols() {
			b = appendI64s(b, *col)
		}
		b = appendStrCols(b, cols.strCols())
	}
	b = endSection(b, start)

	// events
	ev := &img.Events
	b, start = beginSection(b, secEvents)
	b = appendU32(b, uint32(len(ev.ID)))
	for _, col := range ev.intCols() {
		b = appendI64s(b, *col)
	}
	b = append(b, ev.Op...)
	b = endSection(b, start)

	// adjacency
	a := &img.Adj
	b, start = beginSection(b, secAdjacency)
	b = appendU32(b, uint32(len(a.OutNodes)))
	b = appendU32(b, uint32(len(a.Out)))
	b = appendU32(b, uint32(len(a.InNodes)))
	b = appendU32(b, uint32(len(a.In)))
	for _, col := range [][]int32{a.OutNodes, a.OutCounts, a.Out, a.InNodes, a.InCounts, a.In} {
		b = appendI32s(b, col)
	}
	b = endSection(b, start)

	return b
}

func encodedSizeHint(img *Image, cols *EntityCols) int {
	a := &img.Adj
	n := 96 + len(img.Events.ID)*57 + (len(a.Out)+len(a.In)+2*len(a.OutNodes)+2*len(a.InNodes))*4
	if cols != nil {
		n += len(cols.Kind)*70 + 1024
	}
	return n
}

// reader is a bounds-checked cursor over a decoded byte buffer; every
// read validates remaining length so mutated inputs produce typed
// errors, never panics or unbounded allocations.
type reader struct {
	b    []byte
	off  int
	file string
}

func (r *reader) fail(reason string) error {
	return &CorruptError{File: r.file, Offset: int64(r.off), Reason: reason}
}

func (r *reader) need(n int) error {
	if n < 0 || len(r.b)-r.off < n {
		return r.fail(fmt.Sprintf("need %d bytes, have %d", n, len(r.b)-r.off))
	}
	return nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *reader) i64s(n int) ([]int64, error) {
	raw, err := r.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func (r *reader) i32s(n int) ([]int32, error) {
	raw, err := r.bytes(n * 4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out, nil
}

// section validates the next section frame (ID and checksum) and
// returns a cursor over its payload.
func (r *reader) section(wantID uint32) (*reader, error) {
	id, err := r.u32()
	if err != nil {
		return nil, err
	}
	if id != wantID {
		return nil, r.fail(fmt.Sprintf("section ID %d, want %d", id, wantID))
	}
	ln, err := r.u32()
	if err != nil {
		return nil, err
	}
	crc, err := r.u32()
	if err != nil {
		return nil, err
	}
	start := r.off
	payload, err := r.bytes(int(ln))
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, &CorruptError{File: r.file, Offset: int64(start), Reason: fmt.Sprintf("section %d checksum mismatch", wantID)}
	}
	return &reader{b: payload, file: r.file}, nil
}

// DecodeSegment parses and validates a segment file image. Every
// section checksum is verified and every count is bounds-checked
// against the remaining input before allocation, so arbitrary inputs
// return a typed error (wrapping ErrCorrupt) rather than panicking.
func DecodeSegment(data []byte) (*Image, error) {
	r := &reader{b: data, file: "segment"}
	magic, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	if string(magic) != segMagic {
		return nil, r.fail("bad magic")
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != segVersion {
		return nil, r.fail(fmt.Sprintf("unsupported segment version %d", ver))
	}

	meta, err := r.section(secMeta)
	if err != nil {
		return nil, err
	}
	nMeta := 8
	if ver == 1 {
		nMeta = 6 // no range: a full image
	}
	m, err := meta.i64s(nMeta)
	if err != nil {
		return nil, err
	}
	img := &Image{NextEventID: m[0], MinTime: m[1], MaxTime: m[2], Nodes: int(m[5])}
	if ver > 1 {
		img.Base = Base{Entity: m[6], Event: m[7]}
	}
	nEnt, nEv := m[3], m[4]
	if nEnt < 0 || nEv < 0 || m[5] < 0 || m[5] > math.MaxInt32 || img.NextEventID < 0 ||
		img.Base.Entity < 0 || img.Base.Event < 0 || img.Base.Event > img.NextEventID {
		return nil, meta.fail("meta count or range out of bounds")
	}

	ents, err := r.section(secEntities)
	if err != nil {
		return nil, err
	}
	en, err := ents.u32()
	if err != nil {
		return nil, err
	}
	if int64(en) != nEnt {
		return nil, ents.fail("entity count disagrees with meta")
	}
	if en > 0 {
		n := int(en)
		// Cheapest possible row is ~29 bytes (kind + 3 int64s + offsets);
		// reject counts the input cannot hold before allocating.
		if err := ents.need(n * 29); err != nil {
			return nil, err
		}
		c := &EntityCols{}
		kind, err := ents.bytes(n)
		if err != nil {
			return nil, err
		}
		c.Kind = append([]uint8(nil), kind...)
		// The three int columns are adjacent on disk: decode them from one
		// slab, carved with capped capacities so appends never cross columns.
		ints, err := ents.i64s(3 * n)
		if err != nil {
			return nil, err
		}
		for i, dst := range c.intCols() {
			*dst = ints[i*n : (i+1)*n : (i+1)*n]
		}
		// All ten string columns decode from one offsets array and one blob
		// copy into one header slab, carved per column with capped
		// capacities so appends never cross columns.
		offRaw, err := ents.bytes((10*n + 1) * 4)
		if err != nil {
			return nil, err
		}
		blobLen := binary.LittleEndian.Uint32(offRaw[10*n*4:])
		blobRaw, err := ents.bytes(int(blobLen))
		if err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(offRaw) != 0 {
			return nil, ents.fail("string offsets must start at 0")
		}
		blob := string(blobRaw)
		strs := make([]string, 10*n)
		prev := uint32(0)
		for i := range strs {
			end := binary.LittleEndian.Uint32(offRaw[(i+1)*4:])
			if end < prev || end > blobLen {
				return nil, ents.fail("string offsets not monotonic")
			}
			strs[i] = blob[prev:end]
			prev = end
		}
		for i, dst := range c.strCols() {
			*dst = strs[i*n : (i+1)*n : (i+1)*n]
		}
		for i, k := range c.Kind {
			switch audit.EntityKind(k) {
			case audit.EntityFile, audit.EntityProcess, audit.EntityNetConn:
			default:
				return nil, ents.fail(fmt.Sprintf("entity %d has invalid kind %d", i+1, k))
			}
		}
		img.EntityCols = c
		img.Entities = buildEntities(c, img.Base.Entity)
	}

	evs, err := r.section(secEvents)
	if err != nil {
		return nil, err
	}
	evn32, err := evs.u32()
	if err != nil {
		return nil, err
	}
	if int64(evn32) != nEv {
		return nil, evs.fail("event count disagrees with meta")
	}
	evn := int(evn32)
	if err := evs.need(evn * 57); err != nil {
		return nil, err
	}
	e := &img.Events
	// The seven int64 columns are adjacent on disk; decode into one slab.
	evInts, err := evs.i64s(7 * evn)
	if err != nil {
		return nil, err
	}
	for i, dst := range e.intCols() {
		*dst = evInts[i*evn : (i+1)*evn : (i+1)*evn]
	}
	op, err := evs.bytes(evn)
	if err != nil {
		return nil, err
	}
	e.Op = append([]uint8(nil), op...)

	adj, err := r.section(secAdjacency)
	if err != nil {
		return nil, err
	}
	if ver == 1 {
		err = decodeDenseAdj(adj, img)
	} else {
		err = decodeSparseAdj(adj, &img.Adj)
	}
	if err != nil {
		return nil, err
	}
	if err := validateImage(img); err != nil {
		return nil, err
	}
	return img, nil
}

// decodeSparseAdj reads the version-2 adjacency section: four u32 lengths
// (out nodes, out edges, in nodes, in edges), then the six arrays as one
// slab carved per column.
func decodeSparseAdj(r *reader, a *AdjCSR) error {
	var n [4]int
	for i := range n {
		v, err := r.u32()
		if err != nil {
			return err
		}
		n[i] = int(v)
	}
	nOutN, nOut, nInN, nIn := n[0], n[1], n[2], n[3]
	ints, err := r.i32s(2*nOutN + nOut + 2*nInN + nIn)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		dst *[]int32
		n   int
	}{{&a.OutNodes, nOutN}, {&a.OutCounts, nOutN}, {&a.Out, nOut}, {&a.InNodes, nInN}, {&a.InCounts, nInN}, {&a.In, nIn}} {
		*c.dst = ints[:c.n:c.n]
		ints = ints[c.n:]
	}
	return nil
}

// decodeDenseAdj reads the version-1 adjacency section — a node count,
// the two flat lengths, then per-node counts — and keeps only the nodes
// with edges.
func decodeDenseAdj(r *reader, img *Image) error {
	nodes, err := r.u32()
	if err != nil {
		return err
	}
	outLen, err := r.u32()
	if err != nil {
		return err
	}
	inLen, err := r.u32()
	if err != nil {
		return err
	}
	if int(nodes) != img.Nodes {
		return r.fail("adjacency node count disagrees with meta")
	}
	nN, nOut, nIn := int(nodes), int(outLen), int(inLen)
	ints, err := r.i32s(2*nN + nOut + nIn)
	if err != nil {
		return err
	}
	a := &img.Adj
	a.OutNodes, a.OutCounts = sparseCounts(ints[:nN])
	a.Out = ints[nN : nN+nOut : nN+nOut]
	a.InNodes, a.InCounts = sparseCounts(ints[nN+nOut : 2*nN+nOut])
	a.In = ints[2*nN+nOut : 2*nN+nOut+nIn : 2*nN+nOut+nIn]
	return nil
}

// sparseCounts turns dense per-node counts into the node list and counts
// of the nodes whose count is non-zero.
func sparseCounts(dense []int32) (nodes, counts []int32) {
	n := 0
	for _, c := range dense {
		if c != 0 {
			n++
		}
	}
	slab := make([]int32, 2*n)
	nodes, counts = slab[:0:n], slab[n:n:2*n]
	for i, c := range dense {
		if c != 0 {
			nodes = append(nodes, int32(i))
			counts = append(counts, c)
		}
	}
	return nodes, counts
}

// validateImage enforces the cross-section invariants a store restore
// relies on, so a decoded image can be adopted without re-checking.
func validateImage(img *Image) error {
	bad := func(reason string) error {
		return &CorruptError{File: "segment", Offset: 0, Reason: reason}
	}
	nEdges := int32(len(img.Events.ID))
	for _, dir := range img.Adj.dirs() {
		if len(dir.nodes) != len(dir.counts) {
			return bad("adjacency node list and counts disagree")
		}
		var sum int64
		for i, c := range dir.counts {
			if c <= 0 {
				return bad("adjacency count not positive")
			}
			if nd := dir.nodes[i]; nd < 0 || int(nd) >= img.Nodes || i > 0 && nd <= dir.nodes[i-1] {
				return bad("adjacency nodes not ascending within the node count")
			}
			sum += int64(c)
		}
		if sum != int64(len(dir.flat)) {
			return bad("adjacency counts disagree with flat list length")
		}
		for _, ei := range dir.flat {
			if ei < 0 || ei >= nEdges {
				return bad("adjacency edge offset out of range")
			}
		}
	}
	nodes := int64(img.Nodes)
	prev := max(img.Base.Event-1, 0)
	for i, id := range img.Events.ID {
		if id <= prev || id >= img.NextEventID {
			return bad("event IDs not ascending within the range")
		}
		prev = id
		if s := img.Events.Subject[i]; s < 1 || s > nodes {
			return bad("event subject out of range")
		}
		if o := img.Events.Object[i]; o < 1 || o > nodes {
			return bad("event object out of range")
		}
		if op := img.Events.Op[i]; op == uint8(audit.OpInvalid) || op > uint8(audit.OpReceive) {
			return bad("event op code out of range")
		}
	}
	if img.Base.Entity > nodes || img.End().Entity > nodes {
		return bad("more entities than graph nodes")
	}
	return nil
}

// SegmentFileName returns the file name for a flush generation and
// role, e.g. seg-00000007-global.seg.
func SegmentFileName(gen int64, role string) string {
	return fmt.Sprintf("seg-%08d-%s.seg", gen, role)
}

// WriteSegment encodes img and writes it to dir/name, fsyncing the file.
// The write goes through the FaultSegmentFlush point.
func WriteSegment(dir, name string, img *Image) (int64, error) {
	if err := faultinject.Hit(FaultSegmentFlush); err != nil {
		return 0, err
	}
	data := Encode(img)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	return int64(len(data)), f.Close()
}

// OpenSegment reads and decodes dir/name, verifying every checksum.
// Reads go through the FaultRecoveryRead point.
func OpenSegment(path string) (*Image, error) {
	if err := faultinject.Hit(FaultRecoveryRead); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	img, err := DecodeSegment(data)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			ce.File = path
		}
		return nil, err
	}
	return img, nil
}
