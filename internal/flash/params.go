package flash

import "time"

// CellMode selects how a block's cells are programmed. REIS soft-
// partitions the array into an SLC-ESP region for binary embeddings
// (error-free in-plane computation without ECC) and a TLC region for
// documents and INT8 embeddings (Sec 4.1.2).
type CellMode int

const (
	// ModeSLCESP is single-level-cell programming with Enhanced
	// SLC-mode Programming: maximum voltage margin, zero raw bit error
	// rate even at 1-year retention / 10K P-E cycles (Flash-Cosmos).
	ModeSLCESP CellMode = iota
	// ModeSLC is conventional SLC programming.
	ModeSLC
	// ModeTLC is triple-level-cell programming: 3x density, higher
	// latency, needs ECC.
	ModeTLC
)

// String implements fmt.Stringer.
func (m CellMode) String() string {
	switch m {
	case ModeSLCESP:
		return "SLC-ESP"
	case ModeSLC:
		return "SLC"
	case ModeTLC:
		return "TLC"
	default:
		return "unknown"
	}
}

// Params collects the per-event latency and energy constants of the
// device model. Values follow the paper's sources: tR for ESP-SLC is
// the 22.5 us the paper takes from Flash-Cosmos (Table 3); TLC read
// and program latencies follow contemporary 3D-NAND datasheets
// (ISSCC'21/'22 512Gb-1Tb parts); energy numbers follow the
// Flash-Cosmos chip characterization scaled to a 16 KiB page.
type Params struct {
	// Read latencies (array sensing into the page buffer).
	readSLCESP time.Duration
	readSLC    time.Duration
	readTLC    time.Duration
	// Program latencies.
	programSLC time.Duration
	programTLC time.Duration

	// LatchXOR is the time for an in-plane XOR between two latches
	// over a full page (Flash-Cosmos reports single-digit us for
	// inter-latch bulk bitwise operations).
	LatchXOR time.Duration
	// BitCountPage is the time for the peripheral fail-bit counter to
	// count ones over a full page in the data latch.
	BitCountPage time.Duration
	// PassFailCheck is the comparator time per page.
	PassFailCheck time.Duration

	// DieInputBandwidth is the rate at which the die I/O can load data
	// into a page buffer during Input Broadcasting (bytes/s); equal to
	// the channel rate on the modeled parts.
	DieInputBandwidth float64

	// Energy per event, in joules.
	EnergyReadPage    float64 // array sense, per page
	EnergyLatchXOR    float64 // per page
	EnergyBitCount    float64 // per page
	EnergyXferPerByte float64 // channel/die I/O transfer
}

// DefaultParams returns the parameter set used across the evaluation.
func DefaultParams() Params {
	return Params{
		readSLCESP: 22500 * time.Nanosecond, // Table 3: 22.5us tR (ESP-SLC)
		readSLC:    25 * time.Microsecond,
		readTLC:    85 * time.Microsecond,
		programSLC: 200 * time.Microsecond,
		programTLC: 700 * time.Microsecond,

		LatchXOR:      2 * time.Microsecond,
		BitCountPage:  3 * time.Microsecond,
		PassFailCheck: 500 * time.Nanosecond,

		DieInputBandwidth: 1.2e9,

		EnergyReadPage:    18e-6, // 18 uJ per 16KiB page sense
		EnergyLatchXOR:    0.8e-6,
		EnergyBitCount:    1.0e-6,
		EnergyXferPerByte: 6e-12, // ~6 pJ/byte die I/O + channel
	}
}

// ReadLatency returns the array read time for the given mode.
func (p Params) ReadLatency(m CellMode) time.Duration {
	switch m {
	case ModeSLCESP:
		return p.readSLCESP
	case ModeSLC:
		return p.readSLC
	default:
		return p.readTLC
	}
}

// ProgramLatency returns the page program time for the given mode.
func (p Params) ProgramLatency(m CellMode) time.Duration {
	if m == ModeTLC {
		return p.programTLC
	}
	return p.programSLC
}
