package flash

import (
	"fmt"
	"math/bits"
)

// Opcode enumerates the NAND flash commands the die control logic
// executes: the Table 2 extensions REIS issues, plus the conventional
// page read they extend. The die control logic is a finite-state machine
// (Sec 4.4.2): commands arrive from the controller and drive the
// peripheral logic. Table 2's XOR and GEN_DIST survive as the two halves
// of one page-granular command, OpGenDistPage, and as its counters: one
// Stats.LatchXORs and one Stats.BitCounts per slot of each wave.
type Opcode int

const (
	// OpReadPage is the conventional page read (sense into the page
	// buffer).
	OpReadPage Opcode = iota
	// OpIBC broadcasts a copy of the query embedding into the page
	// buffer (Table 2: "IBC Q_EMB").
	OpIBC
	// OpGenDistPage computes the distances of a whole sensed page in
	// one wave: a single latch-to-latch XOR (Table 2: "XOR ADR_P")
	// followed by the fail-bit counter over every requested slot
	// (Table 2: "GEN_DIST EADR"), written into a caller-provided
	// distance buffer — the hardware computes all slot distances of a
	// page inside the plane in one command.
	OpGenDistPage
	// OpReadTTL transfers a TTL entry for an embedding to the SSD DRAM
	// (Table 2: "RD_TTL EADR").
	OpReadTTL
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpReadPage:
		return "READ_PAGE"
	case OpIBC:
		return "IBC"
	case OpGenDistPage:
		return "GEN_DIST_PAGE"
	case OpReadTTL:
		return "RD_TTL"
	default:
		return "UNKNOWN"
	}
}

// Command is one command issued to a die's control logic.
type Command struct {
	Op    Opcode
	Addr  Address // OpReadPage
	Plane int     // OpGenDistPage, OpReadTTL: global plane index
	// Query and SlotBytes apply to OpIBC. With a zero PlaneMask the
	// command loads Plane's cache latch alone; a non-zero PlaneMask makes
	// it the multi-plane broadcast to global die index Die (MPIBC,
	// Sec 4.3.4) — one load that the die's planes in the mask latch
	// (bit i = plane-in-die i) — and Held marks a die that still holds
	// this broadcast, where nothing is sent (Device.loadCacheDie).
	Query     []byte
	SlotBytes int
	Die       int
	PlaneMask uint64
	Held      bool
	// EntryBytes applies to OpReadTTL: the size of the transferred TTL
	// entry.
	EntryBytes int
	// Mini, Slots and Dists apply to OpGenDistPage: the first slot of
	// the sensed page (a mini-page, Sec 4.3.2) and the number of slots to
	// compute from it, and the caller-owned buffer the per-slot distances
	// are written into (Dists[0:Slots]). The buffer is reused across
	// commands — the die writes into it in place, so the controller never
	// allocates on the scan path.
	Mini  int
	Slots int
	Dists []int
	// Bound applies to OpGenDistPage: the controller's current top-k
	// pruning threshold (0 = none). Distances are computed regardless;
	// slots strictly above the bound are counted as pruned, and the
	// controller skips their TTL transfer.
	Bound int
}

// DieFSM validates and executes commands against a device. It enforces
// the protocol ordering the die control logic requires: GEN_DIST_PAGE is
// only legal on a plane after both an IBC and a page read have populated
// its cache and sensing latches.
type DieFSM struct {
	dev *Device
	// per-plane protocol state
	haveIBC  []bool
	haveRead []bool
}

// NewDieFSM wraps dev with protocol checking.
func NewDieFSM(dev *Device) *DieFSM {
	n := dev.geo.Planes()
	return &DieFSM{
		dev:      dev,
		haveIBC:  make([]bool, n),
		haveRead: make([]bool, n),
	}
}

// Execute runs one command.
func (f *DieFSM) Execute(cmd Command) error {
	switch cmd.Op {
	case OpReadPage:
		if err := f.dev.ReadPage(cmd.Addr); err != nil {
			return err
		}
		f.haveRead[cmd.Addr.PlaneIndex(f.dev.geo)] = true
		return nil
	case OpIBC:
		if cmd.PlaneMask != 0 {
			if err := f.dev.loadCacheDie(cmd.Die, cmd.PlaneMask, cmd.Query, cmd.SlotBytes, cmd.Held); err != nil {
				return err
			}
			for m := cmd.PlaneMask; m != 0; m &= m - 1 {
				f.haveIBC[f.dev.geo.DiePlane(cmd.Die, bits.TrailingZeros64(m))] = true
			}
			return nil
		}
		if err := f.dev.LoadCache(cmd.Plane, cmd.Query, cmd.SlotBytes); err != nil {
			return err
		}
		f.haveIBC[cmd.Plane] = true
		return nil
	case OpGenDistPage:
		if err := f.checkPlane(cmd); err != nil {
			return err
		}
		if !f.haveIBC[cmd.Plane] {
			return fmt.Errorf("flash: GEN_DIST_PAGE on plane %d before IBC", cmd.Plane)
		}
		if !f.haveRead[cmd.Plane] {
			return fmt.Errorf("flash: GEN_DIST_PAGE on plane %d before page read", cmd.Plane)
		}
		return f.dev.GenDistPage(cmd.Plane, cmd.SlotBytes, cmd.Mini, cmd.Slots, cmd.Dists, cmd.Bound)
	case OpReadTTL:
		if cmd.EntryBytes <= 0 {
			return fmt.Errorf("flash: RD_TTL with non-positive entry size")
		}
		if err := f.checkPlane(cmd); err != nil {
			return err
		}
		f.dev.transferOut(cmd.Plane, cmd.EntryBytes)
		return nil
	default:
		return fmt.Errorf("flash: unknown opcode %d", cmd.Op)
	}
}

// checkPlane refuses a command naming a plane outside the device.
func (f *DieFSM) checkPlane(cmd Command) error {
	if cmd.Plane < 0 || cmd.Plane >= len(f.haveIBC) {
		return fmt.Errorf("flash: %v on invalid plane %d", cmd.Op, cmd.Plane)
	}
	return nil
}
