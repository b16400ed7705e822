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
// by the engine's caller goroutine between runs (the WaitGroup in run
// establishes the happens-before edge both ways, keeping -race clean).
type workerScratch struct {
	// entries is the TTL-entry arena. Scan tasks append surviving
	// entries here and record their [lo, hi) window in a planeScan; the
	// engine merges the windows after the run completes and resets the
	// arena at the start of the next scan phase. Windows index the
	// arena rather than aliasing it, so arena growth never invalidates
	// a previously recorded window.
	entries []TTLEntry
	// oob holds the sensed page's OOB area between the page read and
	// the per-slot linkage decode.
	oob []byte
	// dists is the distance buffer handed to GEN_DIST_PAGE: the die
	// writes every slot distance of the sensed page into it in place.
	dists []int
}

// planePool dispatches a scan round's per-plane work lists
// (scanRound.runPlane) onto one worker per simulated
// die (channels x dies/channel workers, sized from the SSD geometry).
// That mirrors the hardware: planes of one die share control logic and
// execute commands one at a time, while different dies run fully in
// parallel.
//
// Workers are persistent goroutines draining per-worker channels (the
// die's command queue), started lazily on the first multi-plane run and
// stopped for good by Engine.Close. A run enqueues each worker's plane
// list and waits; the pool is never invoked per plane.
//
// Determinism: a plane always maps to the same worker, and a worker runs
// its planes in submission order, so the per-plane
// command sequence — and therefore every latch content, distance and
// counter a work item observes — is independent of goroutine scheduling.
type planePool struct {
	planesPerDie int
	workers      int
	// scratch[w] is worker w's arena; queues, errs and wg are the pooled
	// per-run dispatch structures.
	scratch []*workerScratch
	queues  [][]int
	errs    []error
	wg      sync.WaitGroup
	// chans[w] feeds worker w's goroutine; nil until started. The pool
	// has a single dispatching owner at a time (the device lock holder),
	// so started/stopped/chans need no extra synchronization.
	chans   []chan poolRun
	started bool
	// stopped is set by stop: the device is closed and refuses further
	// scans instead of restarting (and leaking) its workers.
	stopped bool
}

// poolRun is one run's share for one worker: the planes of the round
// whose work lists it executes.
type poolRun struct {
	round  *scanRound
	planes []int
}

func newPlanePool(geo flash.Geometry) *planePool {
	workers := geo.Dies()
	p := &planePool{
		planesPerDie: geo.PlanesPerDie,
		workers:      workers,
		scratch:      make([]*workerScratch, workers),
		queues:       make([][]int, workers),
		errs:         make([]error, workers),
	}
	for i := range p.scratch {
		p.scratch[i] = &workerScratch{}
	}
	return p
}

// workerOf returns the worker (die) index serving a global plane index.
func (p *planePool) workerOf(plane int) int { return plane / p.planesPerDie }

// scratchOf returns the arena of the worker serving a global plane
// index — how the engine resolves a planeScan's entry window after a
// run completes.
func (p *planePool) scratchOf(plane int) *workerScratch { return p.scratch[p.workerOf(plane)] }

// resetArenas empties every worker's entry arena (keeping capacity).
// The engine calls it at the start of each scan phase, once all windows
// of the previous phase have been merged out.
func (p *planePool) resetArenas() {
	for _, sc := range p.scratch {
		sc.entries = sc.entries[:0]
	}
}

// start spins up the persistent die workers. Each worker loops on its
// channel, executing one run's plane list at a time; the channel
// send/receive and the run WaitGroup establish the happens-before
// edges that keep the scratch ownership rule race-clean.
func (p *planePool) start() {
	if p.started {
		return
	}
	p.started = true
	p.chans = make([]chan poolRun, p.workers)
	for w := range p.chans {
		ch := make(chan poolRun, 1)
		p.chans[w] = ch
		go func(w int, ch chan poolRun) {
			sc := p.scratch[w]
			for r := range ch {
				for _, plane := range r.planes {
					if err := r.round.runPlane(sc, plane); err != nil {
						p.errs[w] = err
						break
					}
				}
				p.wg.Done()
			}
		}(w, ch)
	}
}

// stop terminates the persistent workers (Engine.Close) and marks the
// pool stopped; batchScan refuses to run on it from then on.
func (p *planePool) stop() {
	p.stopped = true
	if !p.started {
		return
	}
	for _, ch := range p.chans {
		close(ch)
	}
	p.chans = nil
	p.started = false
}

// run executes the round's work on the given planes and waits for
// completion. Planes are grouped by worker preserving submission order
// and enqueued onto the persistent die workers' command queues; a lone
// plane runs on the caller's goroutine. The first error of the
// lowest-numbered worker is returned; a worker stops its run at its
// first error.
func (p *planePool) run(round *scanRound, planes []int) error {
	switch len(planes) {
	case 0:
		return nil
	case 1:
		return round.runPlane(p.scratchOf(planes[0]), planes[0])
	}
	p.start()
	queues := p.queues
	for w := range queues {
		p.errs[w] = nil
		queues[w] = queues[w][:0]
	}
	for _, plane := range planes {
		w := p.workerOf(plane)
		queues[w] = append(queues[w], plane)
	}
	for w, q := range queues {
		if len(q) == 0 {
			continue
		}
		p.wg.Add(1)
		p.chans[w] <- poolRun{round: round, planes: q}
	}
	p.wg.Wait()
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}
