package ssd

import (
	"fmt"

	"reis/internal/flash"
)

// Region is a physically contiguous, plane-striped extent of pages —
// the unit of coarse-grained access. Page i of a region lives on plane
// (i mod planes) at page offset StartStripe + i/planes within that
// plane, which simultaneously
//
//   - stripes consecutive embeddings across all planes
//     (Parallelism-First Page Allocation, Sec 4.1.1), and
//   - lets the controller derive any page's physical address by
//     arithmetic instead of an FTL lookup (Sec 4.1.4).
type Region struct {
	// StartStripe is the first page offset (within every plane) that
	// the region occupies.
	StartStripe int
	// PageCount is the number of live (programmed or scannable) pages.
	PageCount int
	// capPages is the region's full reserved capacity in pages — the
	// block-aligned extent AllocateRegion claimed, covering the live
	// pages, the explicit overprovisioning, and the alignment slack.
	// Appends grow PageCount toward capPages; zero (a hand-built
	// Region) means the capacity equals PageCount.
	capPages int

	// rowStripes, when non-zero, turns on row-mapped addressing: the
	// region's logical stripes are grouped into rows of rowStripes
	// stripes each, and logical row r resolves through rowMap[r] to a
	// physical row inside the reserved extent. This one extra level of
	// indirection — still a handful of integers per erase row, not a
	// page-level map — lets background GC recycle erased rows into the
	// append tail: the logical address space grows monotonically while
	// the physical extent is reused. Zero keeps the direct arithmetic
	// mapping.
	rowStripes int
	// rowMap binds logical row index to physical row index within the
	// reserved extent (physical row p starts at stripe
	// StartStripe + p*rowStripes). -1 marks a reclaimed (erased,
	// unmapped) logical row whose pages can no longer be addressed.
	rowMap []int32
}

// capacity returns the reserved capacity in pages (at least PageCount).
func (r Region) capacity() int { return max(r.capPages, r.PageCount) }

// SetLive resizes the live extent within the reserved capacity; an
// append beyond it fails with ErrRegionFull. For a row-mapped region
// the bound is the mapped logical capacity (every live page must fall
// in a mapped row), not capPages: recycling lets the logical tail grow
// past the physical reservation.
func (r *Region) SetLive(planes, pages int) error {
	bound := r.capacity()
	if r.rowStripes > 0 {
		bound = len(r.rowMap) * r.rowStripes * planes
	}
	if pages < 0 || pages > bound {
		return fmt.Errorf("%w (%d pages of %d reserved)", ErrRegionFull, pages, bound)
	}
	r.PageCount = pages
	return nil
}

// EnableRowMap switches the region to row-mapped addressing with rows
// of rowStripes stripes, identity-mapping the first rows logical rows.
// The caller guarantees the region's live pages fit in those rows.
func (r *Region) EnableRowMap(rowStripes, rows int) {
	r.rowStripes = rowStripes
	r.rowMap = make([]int32, rows)
	for i := range r.rowMap {
		r.rowMap[i] = int32(i)
	}
}

// physRows returns how many physical rows the reserved extent holds
// (0 for a direct-mapped region).
func (r Region) physRows(planes int) int {
	if r.rowStripes == 0 {
		return 0
	}
	return r.capacity() / (planes * r.rowStripes)
}

// AddressOf resolves page i of the region under the geometry by pure
// arithmetic (no mapping table); a row-mapped region adds one rowMap
// lookup to redirect the page's row to its physical slot.
func (r Region) AddressOf(g flash.Geometry, i int) (flash.Address, error) {
	if i < 0 || i >= r.PageCount {
		return flash.Address{}, fmt.Errorf("ssd: page %d outside region of %d pages", i, r.PageCount)
	}
	planes := g.Planes()
	plane := i % planes
	stripe := i / planes
	if r.rowStripes > 0 {
		row := stripe / r.rowStripes
		if row >= len(r.rowMap) || r.rowMap[row] < 0 {
			return flash.Address{}, fmt.Errorf("ssd: region page %d in unmapped row %d", i, row)
		}
		stripe = int(r.rowMap[row])*r.rowStripes + stripe%r.rowStripes
	}
	off := r.StartStripe + stripe
	if off >= g.PagesPerPlane() {
		return flash.Address{}, fmt.Errorf("ssd: region page %d exceeds plane capacity", i)
	}
	return flash.AddressFromLinear(g, plane*g.PagesPerPlane()+off), nil
}

// PlaneSpan is the region pages of a range resident on one plane,
// described arithmetically (page indices First, First+Stride, ...,
// Count of them) instead of as a materialized index list. Because
// striping puts page i on plane i mod planes, each span is disjoint
// from every other plane's, so independent planes of a stripe can be
// scanned concurrently without sharing mutable state; and splitting a
// range across planes costs the scan hot path no per-query allocation.
type PlaneSpan struct {
	// Plane is the global plane index the pages live on.
	Plane int
	// First is the lowest region page index of the span.
	First int
	// Stride is the distance between consecutive page indices (the
	// plane count of the striped layout).
	Stride int
	// Count is the number of pages in the span.
	Count int
}

// planeSpanRange returns the span of region pages [first, last]
// (inclusive, region page indices) resident on the given plane. Count
// is 0 when the range skips the plane.
func (r Region) planeSpanRange(planes, plane, first, last int) PlaneSpan {
	if first < 0 {
		first = 0
	}
	if last >= r.PageCount {
		last = r.PageCount - 1
	}
	s := PlaneSpan{Plane: plane, Stride: planes}
	// Smallest page index >= first congruent to plane mod planes.
	start := first + (plane-first%planes+planes)%planes
	if start > last {
		return s
	}
	s.First = start
	s.Count = (last-start)/planes + 1
	return s
}

// AppendPlaneSpans appends one span per plane with pages in
// [first, last] to dst and returns it, ordered by plane index; together
// the spans cover the range exactly once.
func (r Region) AppendPlaneSpans(dst []PlaneSpan, planes, first, last int) []PlaneSpan {
	for p := 0; p < planes; p++ {
		if s := r.planeSpanRange(planes, p, first, last); s.Count > 0 {
			dst = append(dst, s)
		}
	}
	return dst
}

// DBRecord is one device's R-DB record (Sec 4.1.4, structure A in
// Fig 4): the database signature plus the bounds of its regions on that
// device. The host's database table holds it, one per device slice
// (reis.Database), and is the only copy: a mutation's coarse FTL remap
// (append growth, row-map growth, GC reclaim) rewrites it in place.
type DBRecord struct {
	ID         int
	Embeddings Region
	Documents  Region
	// Extra regions used by the IVF layout (Sec 4.2.1).
	Centroids Region
	Int8s     Region
}
