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
	// CapPages is the region's full reserved capacity in pages — the
	// block-aligned extent AllocateRegion claimed, covering the live
	// pages, the explicit overprovisioning, and the alignment slack.
	// Appends grow PageCount toward CapPages; zero (a hand-built
	// Region) means the capacity equals PageCount.
	CapPages int

	// RowStripes, when non-zero, turns on row-mapped addressing: the
	// region's logical stripes are grouped into rows of RowStripes
	// stripes each, and logical row r resolves through RowMap[r] to a
	// physical row inside the reserved extent. This one extra level of
	// indirection — still a handful of integers per erase row, not a
	// page-level map — lets background GC recycle erased rows into the
	// append tail: the logical address space grows monotonically while
	// the physical extent is reused. Zero keeps the direct arithmetic
	// mapping.
	RowStripes int
	// RowMap binds logical row index to physical row index within the
	// reserved extent (physical row p starts at stripe
	// StartStripe + p*RowStripes). -1 marks a reclaimed (erased,
	// unmapped) logical row whose pages can no longer be addressed.
	RowMap []int32
}

// Cap returns the reserved capacity in pages (at least PageCount).
func (r Region) Cap() int { return max(r.CapPages, r.PageCount) }

// SetLive resizes the live extent within the reserved capacity; an
// append beyond it fails with ErrRegionFull. For a row-mapped region
// the bound is the mapped logical capacity (every live page must fall
// in a mapped row), not CapPages: recycling lets the logical tail grow
// past the physical reservation.
func (r *Region) SetLive(planes, pages int) error {
	bound := r.Cap()
	if r.RowStripes > 0 {
		bound = len(r.RowMap) * r.RowStripes * planes
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
	r.RowStripes = rowStripes
	r.RowMap = make([]int32, rows)
	for i := range r.RowMap {
		r.RowMap[i] = int32(i)
	}
}

// PhysRows returns how many physical rows the reserved extent holds
// (0 for a direct-mapped region).
func (r Region) PhysRows(planes int) int {
	if r.RowStripes == 0 {
		return 0
	}
	return r.Cap() / (planes * r.RowStripes)
}

// AddressOf resolves page i of the region under the geometry by pure
// arithmetic (no mapping table); a row-mapped region adds one RowMap
// lookup to redirect the page's row to its physical slot.
func (r Region) AddressOf(g flash.Geometry, i int) (flash.Address, error) {
	if i < 0 || i >= r.PageCount {
		return flash.Address{}, fmt.Errorf("ssd: page %d outside region of %d pages", i, r.PageCount)
	}
	planes := g.Planes()
	plane := i % planes
	stripe := i / planes
	if r.RowStripes > 0 {
		row := stripe / r.RowStripes
		if row >= len(r.RowMap) || r.RowMap[row] < 0 {
			return flash.Address{}, fmt.Errorf("ssd: region page %d in unmapped row %d", i, row)
		}
		stripe = int(r.RowMap[row])*r.RowStripes + stripe%r.RowStripes
	}
	off := r.StartStripe + stripe
	if off >= g.PagesPerPlane() {
		return flash.Address{}, fmt.Errorf("ssd: region page %d exceeds plane capacity", i)
	}
	return flash.AddressFromLinear(g, plane*g.PagesPerPlane()+off), nil
}

// PlaneView is the portion of a region range resident on one plane: an
// immutable list of region page indices. Because striping puts page i
// on plane i mod planes, each view is disjoint from every other
// plane's, so independent planes of a stripe can be scanned
// concurrently without sharing mutable state.
type PlaneView struct {
	// Plane is the global plane index the pages live on.
	Plane int
	// PageIdxs are the region page indices (ascending) on this plane.
	PageIdxs []int
}

// PlaneViewRange returns the view of region pages [first, last]
// (inclusive, region page indices) that live on the given plane. The
// returned page list is ascending; it is empty when the range skips
// the plane.
func (r Region) PlaneViewRange(planes, plane, first, last int) PlaneView {
	v := PlaneView{Plane: plane}
	if first < 0 {
		first = 0
	}
	if last >= r.PageCount {
		last = r.PageCount - 1
	}
	// Smallest page index >= first congruent to plane mod planes.
	start := first + (plane-first%planes+planes)%planes
	for i := start; i <= last; i += planes {
		v.PageIdxs = append(v.PageIdxs, i)
	}
	return v
}

// PlaneViews splits region pages [first, last] into one view per
// plane, omitting planes with no pages in the range. Views are ordered
// by plane index; together they cover the range exactly once.
func (r Region) PlaneViews(planes, first, last int) []PlaneView {
	var views []PlaneView
	for p := 0; p < planes; p++ {
		if v := r.PlaneViewRange(planes, p, first, last); len(v.PageIdxs) > 0 {
			views = append(views, v)
		}
	}
	return views
}

// PlaneSpan is the allocation-free form of a PlaneView: the region
// pages of a range resident on one plane, described arithmetically
// (page indices First, First+Stride, ..., Count of them) instead of as
// a materialized index list. The scan hot path uses spans so splitting
// a range across planes costs no per-query allocation.
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

// PlaneSpanRange returns the span of region pages [first, last]
// (inclusive, region page indices) resident on the given plane. Count
// is 0 when the range skips the plane.
func (r Region) PlaneSpanRange(planes, plane, first, last int) PlaneSpan {
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
// the spans cover the range exactly once (the span analogue of
// PlaneViews).
func (r Region) AppendPlaneSpans(dst []PlaneSpan, planes, first, last int) []PlaneSpan {
	for p := 0; p < planes; p++ {
		if s := r.PlaneSpanRange(planes, p, first, last); s.Count > 0 {
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
