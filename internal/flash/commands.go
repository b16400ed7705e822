package flash

import (
	"fmt"
	"math/bits"
)

// Opcode enumerates the NAND flash command-set extensions of Table 2,
// plus the conventional read/program commands they extend. The die
// control logic is a finite-state machine (Sec 4.4.2): commands arrive
// from the controller and drive the peripheral logic.
type Opcode int

const (
	// OpReadPage is the conventional page read (sense into the page
	// buffer).
	OpReadPage Opcode = iota
	// OpIBC broadcasts a copy of the query embedding into the page
	// buffer (Table 2: "IBC Q_EMB").
	OpIBC
	// opXOR performs the XOR between latches of a plane
	// (Table 2: "XOR ADR_P").
	opXOR
	// opGenDist computes the distance for one database embedding slot
	// (Table 2: "GEN_DIST EADR").
	opGenDist
	// OpGenDistPage computes the distances of a whole sensed page in
	// one wave: a single latch-to-latch XOR followed by the fail-bit
	// counter over every requested slot, written into a caller-provided
	// distance buffer. It is the page-granular form of "GEN_DIST" —
	// the hardware computes all slot distances of a page inside the
	// plane in one command — and its stats/energy accounting is
	// bit-identical to an opXOR followed by one opGenDist per slot.
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
	case opXOR:
		return "XOR"
	case opGenDist:
		return "GEN_DIST"
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
	Addr  Address  // OpReadPage
	Plane int      // opXOR, opGenDist, OpGenDistPage, OpReadTTL: global plane index
	Mini  MiniPage // opGenDist, OpReadTTL; for OpGenDistPage, Mini.Slot is the first slot
	// Query and SlotBytes apply to OpIBC. With a zero PlaneMask the
	// command loads Plane's cache latch alone; a non-zero PlaneMask makes
	// it the multi-plane broadcast to global die index Die (MPIBC,
	// Sec 4.3.4) — one load that the die's planes in the mask latch
	// (bit i = plane-in-die i) — and Held marks a die that still holds
	// this broadcast, where nothing is sent (Device.LoadCacheDie).
	Query     []byte
	SlotBytes int
	Die       int
	PlaneMask uint64
	Held      bool
	// EntryBytes applies to OpReadTTL: the size of the transferred TTL
	// entry.
	EntryBytes int
	// Slots and Dists apply to OpGenDistPage: the number of slots to
	// compute starting at Mini.Slot, and the caller-owned buffer the
	// per-slot distances are written into (Dists[0:Slots]). The buffer
	// is reused across commands — the die writes into it in place, so
	// the controller never allocates on the scan path.
	Slots int
	Dists []int
	// Bound applies to OpGenDistPage: the controller's current top-k
	// pruning threshold (0 = none). Distances are computed regardless;
	// slots strictly above the bound are counted as pruned, and the
	// controller skips their TTL transfer.
	Bound int
}

// DieFSM validates and executes Table 2 commands against a device.
// It enforces the protocol ordering the die control logic requires:
// GEN_DIST is only legal after an XOR on the same plane, and XOR is
// only legal after both an IBC and a page read have populated the
// latches.
type DieFSM struct {
	dev *Device
	// per-plane protocol state
	haveIBC  []bool
	haveRead []bool
	haveXOR  []bool
}

// NewDieFSM wraps dev with protocol checking.
func NewDieFSM(dev *Device) *DieFSM {
	n := dev.Geo.Planes()
	return &DieFSM{
		dev:      dev,
		haveIBC:  make([]bool, n),
		haveRead: make([]bool, n),
		haveXOR:  make([]bool, n),
	}
}

// Execute runs one command. For opGenDist it returns the computed
// distance; other commands return 0.
func (f *DieFSM) Execute(cmd Command) (int, error) {
	switch cmd.Op {
	case OpReadPage:
		if err := f.dev.ReadPage(cmd.Addr); err != nil {
			return 0, err
		}
		p := cmd.Addr.PlaneIndex(f.dev.Geo)
		f.haveRead[p] = true
		f.haveXOR[p] = false
		return 0, nil
	case OpIBC:
		if cmd.PlaneMask != 0 {
			if err := f.dev.LoadCacheDie(cmd.Die, cmd.PlaneMask, cmd.Query, cmd.SlotBytes, cmd.Held); err != nil {
				return 0, err
			}
			for m := cmd.PlaneMask; m != 0; m &= m - 1 {
				p := f.dev.Geo.DiePlane(cmd.Die, bits.TrailingZeros64(m))
				f.haveIBC[p] = true
				f.haveXOR[p] = false
			}
			return 0, nil
		}
		if cmd.Plane < 0 || cmd.Plane >= f.dev.Geo.Planes() {
			return 0, fmt.Errorf("flash: IBC invalid plane %d", cmd.Plane)
		}
		if err := f.dev.LoadCache(cmd.Plane, cmd.Query, cmd.SlotBytes); err != nil {
			return 0, err
		}
		f.haveIBC[cmd.Plane] = true
		f.haveXOR[cmd.Plane] = false
		return 0, nil
	case opXOR:
		if !f.haveIBC[cmd.Plane] {
			return 0, fmt.Errorf("flash: XOR on plane %d before IBC", cmd.Plane)
		}
		if !f.haveRead[cmd.Plane] {
			return 0, fmt.Errorf("flash: XOR on plane %d before page read", cmd.Plane)
		}
		if err := f.dev.XORLatches(cmd.Plane); err != nil {
			return 0, err
		}
		f.haveXOR[cmd.Plane] = true
		return 0, nil
	case opGenDist:
		if !f.haveXOR[cmd.Plane] {
			return 0, fmt.Errorf("flash: GEN_DIST on plane %d before XOR", cmd.Plane)
		}
		return f.dev.CountSlotBits(cmd.Plane, cmd.SlotBytes, cmd.Mini.Slot)
	case OpGenDistPage:
		// The page-granular command fuses the XOR with the per-slot
		// fail-bit counts, so it needs the same preconditions as XOR
		// and leaves the plane in the post-XOR state.
		if !f.haveIBC[cmd.Plane] {
			return 0, fmt.Errorf("flash: GEN_DIST_PAGE on plane %d before IBC", cmd.Plane)
		}
		if !f.haveRead[cmd.Plane] {
			return 0, fmt.Errorf("flash: GEN_DIST_PAGE on plane %d before page read", cmd.Plane)
		}
		if err := f.dev.GenDistPage(cmd.Plane, cmd.SlotBytes, cmd.Mini.Slot, cmd.Slots, cmd.Dists, cmd.Bound); err != nil {
			return 0, err
		}
		f.haveXOR[cmd.Plane] = true
		return cmd.Slots, nil
	case OpReadTTL:
		if cmd.EntryBytes <= 0 {
			return 0, fmt.Errorf("flash: RD_TTL with non-positive entry size")
		}
		f.dev.TransferOut(cmd.Plane, cmd.EntryBytes)
		return 0, nil
	default:
		return 0, fmt.Errorf("flash: unknown opcode %d", cmd.Op)
	}
}
