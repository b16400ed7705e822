package ssd

import (
	"errors"
	"fmt"

	"reis/internal/flash"
)

// ErrRegionFull is returned when an append would grow a region beyond
// its reserved capacity (the live plan plus Config.OverprovisionPct).
// Submission paths wrap it with detail; match with errors.Is.
var ErrRegionFull = errors.New("ssd: region append exceeds reserved capacity")

// SSD combines the flash device with the controller-side region
// allocator. The R-DB records of the regions it hands out live with the
// host that deployed them (DBRecord).
type SSD struct {
	Cfg Config
	Dev *flash.Device

	// nextStripe is the allocation cursor, in page offsets within each
	// plane. Allocation is block-aligned so soft partitioning never
	// mixes cell modes inside a block.
	nextStripe int
}

// New builds an SSD with capacity grown to hold at least capacityHint
// bytes (0 keeps the preset geometry).
func New(cfg Config, capacityHint int64) (*SSD, error) {
	if cfg.OverprovisionPct < 0 || cfg.OverprovisionPct > 400 {
		return nil, fmt.Errorf("ssd: OverprovisionPct %d outside [0, 400]", cfg.OverprovisionPct)
	}
	if capacityHint > 0 {
		cfg = cfg.withCapacityFor(capacityHint)
	}
	dev, err := flash.NewDevice(cfg.Geo)
	if err != nil {
		return nil, err
	}
	return &SSD{Cfg: cfg, Dev: dev}, nil
}

// AllocateRegion reserves a plane-striped, block-aligned region with
// pages live pages and room for at least capPages (reserved free
// space for appends and GC; capPages <= pages reserves nothing extra),
// and marks every block it touches with the given cell mode,
// implementing the soft partitioning of the hybrid SSD design
// (Sec 4.1.2). Block alignment guarantees no block ever mixes SLC-ESP
// and TLC data. pages may be zero when capPages is positive: the
// region starts empty and grows into its reservation (a shard that
// owns no page of a freshly deployed database yet).
func (s *SSD) AllocateRegion(pages, capPages int, mode flash.CellMode) (Region, error) {
	need := max(pages, capPages)
	if pages < 0 || need <= 0 {
		return Region{}, fmt.Errorf("ssd: AllocateRegion with %d pages (cap %d)", pages, capPages)
	}
	planes := s.Cfg.Geo.Planes()
	stripes := (need + planes - 1) / planes
	// Round the cursor and extent to block boundaries.
	ppb := s.Cfg.Geo.PagesPerBlock
	start := s.nextStripe
	if rem := start % ppb; rem != 0 {
		start += ppb - rem
	}
	endStripe := start + stripes
	if rem := endStripe % ppb; rem != 0 {
		endStripe += ppb - rem
	}
	if endStripe > s.Cfg.Geo.PagesPerPlane() {
		return Region{}, fmt.Errorf("ssd: out of space: need stripes [%d,%d), have %d",
			start, endStripe, s.Cfg.Geo.PagesPerPlane())
	}
	// Mark cell mode for every touched block on every plane.
	for blk := start / ppb; blk < endStripe/ppb; blk++ {
		for ch := 0; ch < s.Cfg.Geo.Channels; ch++ {
			for die := 0; die < s.Cfg.Geo.DiesPerChannel; die++ {
				for pl := 0; pl < s.Cfg.Geo.PlanesPerDie; pl++ {
					a := flash.Address{Channel: ch, Die: die, Plane: pl, Block: blk}
					if err := s.Dev.SetBlockMode(a, mode); err != nil {
						return Region{}, err
					}
				}
			}
		}
	}
	s.nextStripe = endStripe
	// The block-aligned extent is the region's true reservation: its
	// capacity covers the requested pages plus the rounding slack, all
	// of it erased and appendable.
	return Region{StartStripe: start, PageCount: pages, capPages: (endStripe - start) * planes}, nil
}

// MapRegionRows appends physical row assignments to a row-mapped
// region: logical rows len(rowMap)... are bound to the given physical
// rows of the reserved extent, making their pages addressable again.
// The physical rows must have been reclaimed (or never mapped) and are
// assumed erased. Row-map growth is part of the coarse FTL remap a
// mutation commits to the region's R-DB record.
func (s *SSD) MapRegionRows(r *Region, phys []int) error {
	if r.rowStripes == 0 {
		return fmt.Errorf("ssd: MapRegionRows on direct-mapped region")
	}
	bound := r.physRows(s.Cfg.Geo.Planes())
	for _, p := range phys {
		if p < 0 || p >= bound {
			return fmt.Errorf("ssd: physical row %d outside extent of %d rows", p, bound)
		}
		r.rowMap = append(r.rowMap, int32(p))
	}
	return nil
}

// ReclaimRegionRow erases the blocks of one logical row of a
// row-mapped region (its rowStripes must equal PagesPerBlock, so a row
// is exactly one block per plane) and unmaps it, returning the number
// of block erases issued. The freed physical row may later be re-bound
// to a new logical row via MapRegionRows — this is how GC recycles
// compacted rows into the append free pool.
func (s *SSD) ReclaimRegionRow(r *Region, row int) (int, error) {
	g := s.Cfg.Geo
	if r.rowStripes != g.PagesPerBlock || r.StartStripe%g.PagesPerBlock != 0 {
		return 0, fmt.Errorf("ssd: ReclaimRegionRow needs block-row mapping (stripes %d, start %d)",
			r.rowStripes, r.StartStripe)
	}
	if row < 0 || row >= len(r.rowMap) || r.rowMap[row] < 0 {
		return 0, fmt.Errorf("ssd: reclaim of unmapped row %d", row)
	}
	blk := r.StartStripe/g.PagesPerBlock + int(r.rowMap[row])
	erases := 0
	for ch := 0; ch < g.Channels; ch++ {
		for die := 0; die < g.DiesPerChannel; die++ {
			for pl := 0; pl < g.PlanesPerDie; pl++ {
				a := flash.Address{Channel: ch, Die: die, Plane: pl, Block: blk}
				if err := s.Dev.EraseBlock(a); err != nil {
					return erases, err
				}
				erases++
			}
		}
	}
	r.rowMap[row] = -1
	return erases, nil
}

// WriteRegionPage programs page i of a region with data and OOB bytes.
func (s *SSD) WriteRegionPage(r Region, i int, data, oob []byte) error {
	a, err := r.AddressOf(s.Cfg.Geo, i)
	if err != nil {
		return err
	}
	return s.Dev.Program(a, data, oob)
}
