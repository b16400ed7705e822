package reis

import (
	"sync"

	"reis/internal/flash"
)

// workerScratch is the scratch arena owned by one worker (die) of the
// planePool. Tasks dispatched to a worker run serially on its
// goroutine, so they may use these buffers without locking; across pool
// runs the buffers are recycled, giving the scan path zero steady-state
// allocations.
//
// Ownership rule (see DESIGN.md): a worker's scratch may only be
// touched by that worker's goroutine while a pool run is in flight, and
// by the engine's caller goroutine between runs (the channel send in
// dispatch and the WaitGroup in wait establish the happens-before edges
// both ways, keeping -race clean).
type workerScratch struct {
	// arenas are the TTL-entry arenas. Scan tasks append surviving
	// entries to one and record their [lo, hi) window in a planeScan;
	// the controller's fold copies the windows out after the run
	// completes, and the engine resets the arenas at the start of the
	// next scan phase. Windows index an
	// arena rather than aliasing it, so arena growth never invalidates a
	// previously recorded window. The die's planes and a group's queries
	// take turns page by page, so query b of the group fills arena
	// b·PlanesPerDie + pl on plane-in-die pl (runDie): PlanesPerDie
	// arenas in a query-major round, one per (query, plane) in a
	// page-major one.
	arenas [][]ttlEntry
	// oob[pl] holds plane-in-die pl's sensed OOB area between the page
	// read and the per-slot linkage decode.
	oob [][]byte
	// dists is the distance buffer handed to GEN_DIST_PAGE: the die
	// writes every slot distance of the sensed page into it in place.
	dists []int
	// wave[pl] is where plane-in-die pl stands in its work list.
	wave []wavePos
}

// planePool dispatches a scan round's per-die work (scanRound.runDie)
// onto one worker per simulated die (worker w is global die index w,
// flash.Geometry.DieOf). That mirrors the hardware: planes of one die
// share control logic and an I/O port and execute commands one at a
// time, while different dies run fully in parallel.
//
// Workers are persistent goroutines draining per-worker channels (the
// die's command queue), started lazily on the first round dispatched to
// them and stopped for good by device.close. A round hands each busy die
// its share (dispatch) and collects it later (wait); the pool is never
// invoked per plane, and no goroutine is started per round or per
// device.
//
// Determinism: a plane always maps to the same worker, and a worker runs
// its die's broadcasts and scans in the planned order, so the per-plane
// command sequence — and therefore every latch content, distance and
// counter a work item observes — is independent of goroutine scheduling.
type planePool struct {
	geo flash.Geometry
	// scratch[w] is worker w's arena; errs and wg are the pooled per-run
	// dispatch structures.
	scratch []*workerScratch
	errs    []error
	wg      sync.WaitGroup
	// The round between dispatch and wait: its busy dies, and whether
	// wait runs the lone one itself.
	round  *scanRound
	dies   []int
	inline bool
	// chans[w] feeds worker w's goroutine; nil until started. The pool
	// has a single dispatching owner at a time (the device lock holder),
	// so started/chans need no extra synchronization.
	chans   []chan *scanRound
	started bool
}

func newPlanePool(geo flash.Geometry) *planePool {
	workers := geo.Dies()
	p := &planePool{
		geo:     geo,
		scratch: make([]*workerScratch, workers),
		errs:    make([]error, workers),
	}
	for i := range p.scratch {
		p.scratch[i] = &workerScratch{}
	}
	return p
}

// scratchOf returns the arena of the worker serving a global plane
// index — how the engine resolves a planeScan's entry window after a
// run completes.
func (p *planePool) scratchOf(plane int) *workerScratch { return p.scratch[p.geo.DieOf(plane)] }

// resetArenas empties every worker's entry arenas (keeping capacity).
// The engine calls it at the start of each scan phase, once all windows
// of the previous phase have been folded out.
func (p *planePool) resetArenas() {
	for _, sc := range p.scratch {
		for i := range sc.arenas {
			sc.arenas[i] = sc.arenas[i][:0]
		}
	}
}

// start spins up the persistent die workers. Each worker loops on its
// channel, executing its die's share of one round at a time; the channel
// send/receive and the pool's WaitGroup establish the happens-before
// edges that keep the scratch ownership rule race-clean.
func (p *planePool) start() {
	if p.started {
		return
	}
	p.started = true
	p.chans = make([]chan *scanRound, len(p.scratch))
	for w := range p.chans {
		ch := make(chan *scanRound, 1)
		p.chans[w] = ch
		go func(w int, ch chan *scanRound) {
			for r := range ch {
				p.errs[w] = r.runDie(p.scratch[w], w)
				p.wg.Done()
			}
		}(w, ch)
	}
}

// stop terminates the persistent workers (device.close, after which
// startScan refuses a round rather than restart them).
func (p *planePool) stop() {
	if !p.started {
		return
	}
	for _, ch := range p.chans {
		close(ch)
	}
	p.chans = nil
	p.started = false
}

// dispatch hands the round's work on the given dies to each die's
// persistent worker and returns at once; wait collects it. Between the
// two the caller may dispatch other devices' rounds, so a host's devices
// scan side by side with one fan-out level, the dies. inline keeps a
// lone busy die off the workers: wait runs it on the caller's goroutine,
// which a one-device host has nothing else to do with.
func (p *planePool) dispatch(round *scanRound, dies []int, inline bool) {
	p.round, p.dies, p.inline = round, dies, inline && len(dies) == 1
	if p.inline || len(dies) == 0 {
		return
	}
	p.start()
	p.wg.Add(len(dies))
	for _, die := range dies {
		p.chans[die] <- round
	}
}

// wait completes the dispatched round: it runs an inline die, or waits
// for every worker. The error of the lowest-numbered die is returned; a
// die stops at its first error.
func (p *planePool) wait() error {
	round, dies := p.round, p.dies
	p.round, p.dies = nil, nil
	if p.inline {
		return round.runDie(p.scratch[dies[0]], dies[0])
	}
	if len(dies) == 0 {
		return nil
	}
	p.wg.Wait()
	for _, die := range dies {
		if err := p.errs[die]; err != nil {
			return err
		}
	}
	return nil
}
