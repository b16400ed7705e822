package reis

import (
	"encoding/binary"
	"fmt"

	"reis/internal/flash"
	"reis/internal/vecmath"
)

// This file owns the database page format and computes the on-device
// placement of one database independently of which device (or devices)
// will hold it. pageFormat is the slot geometry plus the only code that
// renders a binary, INT8 or document page from slots and the only code
// that parses one back (see DESIGN.md, "Page format"); planLayout
// resolves the Sec 4.1 layout's plan — that geometry, region page counts
// and capacities, INT8 quantization parameters and the distance-filter
// threshold. The placement — cluster-sorted with page-alignment padding —
// and the R-IVF table (mutState.buckets) are the deploy's append's, made
// by the tail allocator every append and GC step runs (mutate.go).
//
// Every topology consumes the same plan and the same rendered pages: the
// host programs global page g on device g mod N with unmodified bytes,
// which is what makes sharded scans bit-identical to a single device
// (see DESIGN.md, "Sharded topology").

// pageFormat is the slot geometry of one database: identical on every
// device built from a shared config, since it depends only on the
// dimensions and the page and OOB sizes. The layout plan, every device's
// Database and the mutable-state ledger all read this one value.
type pageFormat struct {
	slotBytes   int // binary embedding bytes (dim/8)
	embPerPage  int
	int8Bytes   int // INT8 embedding bytes (dim)
	int8PerPage int
	docBytes    int // document chunk slot size
	docsPerPage int
	pageBytes   int
	oobBytes    int
	params      vecmath.Int8Params
}

// OOB layout per embedding slot: DADR (4B) | RADR (4B) | meta tag (1B),
// little-endian.
const oobBytesPerSlot = 9

// invalidDADR marks a padding slot (no embedding stored).
const invalidDADR = ^uint32(0)

// slotLink is a binary slot's OOB record: its document's id (DADR), the
// slot of its INT8 rerank copy (RADR), which also locates the document
// (mutState.docSlot), and its metadata tag.
type slotLink struct {
	dadr, radr uint32
	tag        uint8
}

// slotEntry is one stored binary embedding: its packed code and linkage.
type slotEntry struct {
	slotLink
	code []byte
}

// renderBin renders global page g of a binary (embedding or centroid)
// region into page and oob. Slot s holds what at reports for region
// position g*embPerPage+s — at writes the packed code straight into the
// slot it is handed — and a padding record over a zero code where at
// reports false.
func (f *pageFormat) renderBin(page, oob []byte, g int, at func(pos int, code []byte) (slotLink, bool)) {
	clear(page)
	clear(oob)
	for s := 0; s < f.embPerPage; s++ {
		l, ok := at(g*f.embPerPage+s, f.code(page, s))
		if !ok {
			l = slotLink{dadr: invalidDADR}
		}
		rec := oob[s*oobBytesPerSlot : (s+1)*oobBytesPerSlot]
		binary.LittleEndian.PutUint32(rec[0:], l.dadr)
		binary.LittleEndian.PutUint32(rec[4:], l.radr)
		rec[8] = l.tag
	}
}

// parseLink reads slot s's record out of a binary page's OOB area; ok is
// false for a padding slot.
func parseLink(oob []byte, s int) (l slotLink, ok bool) {
	rec := oob[s*oobBytesPerSlot : (s+1)*oobBytesPerSlot]
	l = slotLink{binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]), rec[8]}
	return l, l.dadr != invalidDADR
}

// code is slot s's packed embedding within a binary page.
func (f *pageFormat) code(page []byte, s int) []byte {
	return page[s*f.slotBytes : (s+1)*f.slotBytes]
}

// renderTLC renders global page g of the INT8 or the document region,
// whose slots are width bytes: items[i] occupies slot first+i,
// zero-padded to the slot, and every other slot of the page stays zero.
// An INT8 item is a packed copy (vecmath.PackInt8Bytes) quantized under
// the deployment's parameters.
func (f *pageFormat) renderTLC(page []byte, g, width int, items [][]byte, first int) {
	clear(page)
	perPage := f.pageBytes / width
	for s := range perPage {
		if i := g*perPage + s - first; i >= 0 && i < len(items) {
			copy(page[s*width:(s+1)*width], items[i])
		}
	}
}

// dbLayout is the device-independent placement plan of one database.
type dbLayout struct {
	dim int

	pageFormat

	// Region sizes in pages: the deploy's extents, which its append fills
	// and the capacities below are planned from, and the centroid
	// region's whole extent.
	embPages, int8Pages, docPages, centPages int

	// Planned region capacities in pages: the live plan plus the
	// configured overprovisioning. The capacity plan is part of the
	// global layout — geometry-independent apart from page size — so a
	// mutation hits ErrRegionFull at the same point on every topology
	// deployed from the same plan.
	embCap, int8Cap, docCap int

	// ppb is the flash pages-per-block constant the layout was planned
	// under, and rowPages the garbage collector's row granularity:
	// planes_global * ppb consecutive global binary-region pages — one
	// block per plane on every device, so victim selection is identical
	// across topologies sharing the block shape. planes is planes_global,
	// the wave width a pruned flat round's page budget grows from
	// (chunkFlatRounds).
	ppb, rowPages, planes int

	filterThreshold int
	// coarseCut[n-1] is the coarse round's in-plane cutoff at nprobe n
	// (calibrateCoarseCut; nil for flat databases). Built once, at
	// deploy: a cut the corpus has drifted from costs re-issues, never
	// a different selection.
	coarseCut []int

	// centCodes[c] is cluster c's binary-quantized centroid code. Nil for
	// flat databases: its length is the cluster count (nlist).
	centCodes [][]uint64
}

// nlist is the database's cluster count: 0 for a flat database.
func (lo *dbLayout) nlist() int { return len(lo.centCodes) }

// flat reports whether the database has no IVF structure.
func (lo *dbLayout) flat() bool { return lo.nlist() == 0 }

// planLayout validates the deployment and computes its layout plan
// under the given flash geometry; overprovisionPct reserves append/GC
// headroom per mutable region. cfg.DocSlotBytes is defaulted in place.
// The plan sizes the regions; the placement itself is the deploy's
// append (hostCore.deploy), which lays the vectors out cluster-sorted
// and page-aligned exactly as placedSlots counts them.
func planLayout(cfg *DeployConfig, geo flash.Geometry, overprovisionPct int) (*dbLayout, error) {
	n := len(cfg.Vectors)
	if n == 0 {
		return nil, fmt.Errorf("reis: deploy of empty database")
	}
	if len(cfg.Docs) != n {
		return nil, fmt.Errorf("reis: %d docs for %d vectors", len(cfg.Docs), n)
	}
	if cfg.DocSlotBytes == 0 {
		cfg.DocSlotBytes = 4096
	}
	dim := len(cfg.Vectors[0])
	lo := &dbLayout{dim: dim, pageFormat: pageFormat{
		slotBytes: vecmath.WordsPerVector(dim) * 8,
		int8Bytes: dim,
		docBytes:  cfg.DocSlotBytes,
		pageBytes: geo.PageBytes,
		oobBytes:  geo.OOBBytes,
		params:    vecmath.ComputeInt8Params(cfg.Vectors),
	}}
	// Embeddings per page are bounded both by the user-data area and by
	// the OOB area, which must hold one linkage record per slot
	// (Sec 4.1.3: linkage uses a small fraction of OOB at the paper's
	// 1024-dim/16KiB operating point; at other ratios OOB can bind).
	lo.embPerPage = min(geo.PageBytes/lo.slotBytes, geo.OOBBytes/oobBytesPerSlot)
	lo.int8PerPage = geo.PageBytes / lo.int8Bytes
	lo.docsPerPage = geo.PageBytes / lo.docBytes
	if lo.embPerPage == 0 || lo.int8PerPage == 0 || lo.docsPerPage == 0 {
		return nil, fmt.Errorf("reis: page size %d too small for dim %d / doc %d",
			geo.PageBytes, dim, cfg.DocSlotBytes)
	}

	// The binary region's extent is counted, not laid out, so a
	// placement past the last int32 position is refused before anything
	// is sized or reserved.
	placed := placedSlots(cfg, lo.embPerPage)
	if err := checkSlotPositions(placed); err != nil {
		return nil, err
	}
	if len(cfg.Centroids) > 0 {
		lo.centCodes = make([][]uint64, len(cfg.Centroids))
		for c, v := range cfg.Centroids {
			lo.centCodes[c] = vecmath.BinaryQuantize(v, nil)
		}
	}
	lo.embPages = ceilDiv(placed, lo.embPerPage)
	lo.int8Pages = ceilDiv(n, lo.int8PerPage)
	lo.docPages = ceilDiv(n, lo.docsPerPage)
	lo.embCap = withHeadroom(lo.embPages, overprovisionPct)
	lo.int8Cap = withHeadroom(lo.int8Pages, overprovisionPct)
	lo.docCap = withHeadroom(lo.docPages, overprovisionPct)
	lo.ppb, lo.planes = geo.PagesPerBlock, geo.Planes()
	lo.rowPages = lo.planes * lo.ppb
	// The binary region reclaims space at GC-row granularity (one block
	// per plane), and copy-forward is strictly out-of-place: collecting
	// a victim row needs a fresh row to relocate its survivors into. An
	// overprovisioned deployment therefore always reserves at least one
	// row beyond the deployed extent, even when the configured headroom
	// is smaller than a row (small databases under coarse geometries).
	// Immutable deployments (no overprovisioning) reserve nothing, so
	// exact-fit layouts on small devices still deploy.
	if overprovisionPct > 0 {
		if minCap := (ceilDiv(lo.embPages, lo.rowPages) + 1) * lo.rowPages; lo.embCap < minCap {
			lo.embCap = minCap
		}
	}
	codes := calibrationSample(cfg.Vectors)
	if !lo.flat() {
		lo.centPages = ceilDiv(lo.nlist(), lo.embPerPage)
		lo.coarseCut = calibrateCoarseCut(codes, lo.centCodes)
	}
	lo.filterThreshold = calibrateFilter(codes)
	return lo, nil
}

// placedSlots is the binary slot positions a deploy places: the vectors
// for a flat database; for an IVF one, each cluster's members after the
// padding that starts the cluster on a fresh page, as the tail allocator
// lays them out (writeTail).
func placedSlots(cfg *DeployConfig, perPage int) int {
	if len(cfg.Centroids) == 0 {
		return len(cfg.Vectors)
	}
	members := make([]int, len(cfg.Centroids))
	for _, c := range cfg.Assign {
		members[c]++
	}
	end := 0
	for _, m := range members {
		if m > 0 {
			end = alignUp(end, perPage) + m
		}
	}
	return end
}

// centSlots is the centroid region: cluster c's code at position c under
// an all-zero record (a coarse scan reads the cluster from the position).
func (lo *dbLayout) centSlots(pos int, code []byte) (slotLink, bool) {
	if pos < len(lo.centCodes) {
		vecmath.PackBinaryBytes(lo.centCodes[pos], code)
	}
	return slotLink{}, true
}

// withHeadroom returns pages grown by pct percent (rounded up).
func withHeadroom(pages, pct int) int {
	return pages + ceilDiv(pages*pct, 100)
}

// shardPages returns how many of pages global region pages shard s of
// nshards owns under round-robin page striping (global page g lives on
// shard g mod nshards, as local page g / nshards).
func shardPages(pages, s, nshards int) int {
	if pages <= s {
		return 0
	}
	return (pages - s + nshards - 1) / nshards
}
