// Package flash models the NAND flash subsystem of a modern SSD at the
// level of detail the REIS paper depends on: channels, dies, planes,
// blocks and pages with Out-Of-Band (OOB) areas; the sensing and cache
// latches of the page buffer; the peripheral fail-bit counter and
// pass/fail checker; SLC (with Enhanced SLC Programming) and TLC cell
// modes with their differing read latency and raw bit-error rates; and
// the vendor command-set extensions of Table 2 (IBC, XOR and GEN_DIST
// fused into the page-granular GEN_DIST_PAGE, RD_TTL).
//
// The model is functional: pages store real bytes, latch operations
// compute real XORs and popcounts, so distances produced by the REIS
// engine are exact. Latency and energy are accounted from per-event
// parameters (Params) taken from the paper's sources (Flash-Cosmos
// characterization, ISSCC datasheets), the same methodology the paper
// uses.
package flash

import "fmt"

// Geometry describes the physical organization of the NAND subsystem.
type Geometry struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	// PageBytes is the user-data size of a flash page (16 KiB on the
	// modeled devices).
	PageBytes int
	// OOBBytes is the spare (out-of-band) area per page; the paper
	// cites 2208 bytes for a 16 KiB page.
	OOBBytes int
	// ChannelBandwidth is the per-channel transfer rate in bytes/s.
	ChannelBandwidth float64
}

// validate reports whether every field is positive (and a die's planes
// fit the 64-bit mask a multi-plane broadcast names them in).
func (g Geometry) validate() error {
	switch {
	case g.Channels <= 0, g.DiesPerChannel <= 0, g.PlanesPerDie <= 0, g.PlanesPerDie > 64,
		g.BlocksPerPlane <= 0, g.PagesPerBlock <= 0, g.PageBytes <= 0,
		g.OOBBytes < 0, g.ChannelBandwidth <= 0:
		return fmt.Errorf("flash: invalid geometry %+v", g)
	}
	return nil
}

// Planes returns the total number of planes in the device — the unit
// of parallel computation for the REIS ANNS engine.
func (g Geometry) Planes() int {
	return g.Channels * g.DiesPerChannel * g.PlanesPerDie
}

// Dies returns the total number of dies.
func (g Geometry) Dies() int { return g.Channels * g.DiesPerChannel }

// PagesPerPlane returns the number of pages a plane holds.
func (g Geometry) PagesPerPlane() int { return g.BlocksPerPlane * g.PagesPerBlock }

// totalPages returns the number of pages in the device.
func (g Geometry) totalPages() int { return g.Planes() * g.PagesPerPlane() }

// Capacity returns the user-data capacity in bytes.
func (g Geometry) Capacity() int64 {
	return int64(g.totalPages()) * int64(g.PageBytes)
}

// InternalBandwidth returns the aggregate channel bandwidth in
// bytes/s (e.g. "9.6 GB/s for an 8-channel system with 1.2 GB/s per
// channel" in Sec 4.3.2).
func (g Geometry) InternalBandwidth() float64 {
	return float64(g.Channels) * g.ChannelBandwidth
}

// Address identifies one physical page.
type Address struct {
	Channel int
	Die     int // within channel
	Plane   int // within die
	Block   int // within plane
	Page    int // within block
}

// Valid reports whether a lies inside g.
func (a Address) Valid(g Geometry) bool {
	return a.Channel >= 0 && a.Channel < g.Channels &&
		a.Die >= 0 && a.Die < g.DiesPerChannel &&
		a.Plane >= 0 && a.Plane < g.PlanesPerDie &&
		a.Block >= 0 && a.Block < g.BlocksPerPlane &&
		a.Page >= 0 && a.Page < g.PagesPerBlock
}

// PlaneIndex returns the global plane index of a in [0, g.Planes()).
// The order is channel-first: index i is channel i mod Channels,
// plane-in-die (i / Channels) mod PlanesPerDie, die i / (Channels ×
// PlanesPerDie). A region stripes page i onto plane i mod Planes, so
// Channels consecutive pages sit on Channels different channels and
// Channels × PlanesPerDie consecutive pages fill exactly one die per
// channel — the parallelism-first layout of Sec 4.1.1, which the timing
// model's even spread over the aggregate channel bandwidth assumes.
func (a Address) PlaneIndex(g Geometry) int {
	return (a.Die*g.PlanesPerDie+a.Plane)*g.Channels + a.Channel
}

// channelOf returns the channel serving a global plane index.
func (g Geometry) channelOf(plane int) int { return plane % g.Channels }

// DieOf returns the global die index, in [0, g.Dies()), of a global
// plane index. Dies are numbered channel-first like planes: die d is
// channel d mod Channels, die-in-channel d / Channels.
func (g Geometry) DieOf(plane int) int {
	return plane/(g.Channels*g.PlanesPerDie)*g.Channels + plane%g.Channels
}

// DieChannel returns the channel serving a global die index.
func (g Geometry) DieChannel(die int) int { return die % g.Channels }

// DiePlane returns the global plane index of plane-in-die pl of global
// die index die — the inverse of (DieOf, plane-in-die).
func (g Geometry) DiePlane(die, pl int) int {
	return (die/g.Channels*g.PlanesPerDie+pl)*g.Channels + die%g.Channels
}

// pageIndex returns the page offset within its plane.
func (a Address) pageIndex(g Geometry) int {
	return a.Block*g.PagesPerBlock + a.Page
}

// LinearIndex returns a unique index for the page across the device,
// ordered plane-major so that consecutive indices within a plane are
// consecutive pages (the layout coarse-grained access relies on).
func (a Address) LinearIndex(g Geometry) int {
	return a.PlaneIndex(g)*g.PagesPerPlane() + a.pageIndex(g)
}

// AddressFromLinear inverts LinearIndex.
func AddressFromLinear(g Geometry, idx int) Address {
	perPlane := g.PagesPerPlane()
	plane := idx / perPlane
	page := idx % perPlane
	return Address{
		Channel: g.channelOf(plane),
		Die:     plane / (g.Channels * g.PlanesPerDie),
		Plane:   plane / g.Channels % g.PlanesPerDie,
		Block:   page / g.PagesPerBlock,
		Page:    page % g.PagesPerBlock,
	}
}

// String implements fmt.Stringer.
func (a Address) String() string {
	return fmt.Sprintf("ch%d/die%d/pl%d/blk%d/pg%d", a.Channel, a.Die, a.Plane, a.Block, a.Page)
}
