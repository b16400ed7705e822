package main

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// hangTimeout is how long the watchdog lets a run go without a single
// completed op before it declares a hang. A variable so the test can
// shorten it.
var hangTimeout = 30 * time.Second

// watchdogExit ends the process and watchdogOut takes the dump; the test
// replaces both.
var (
	watchdogExit           = os.Exit
	watchdogOut  io.Writer = os.Stderr
)

// watchdog guards one whole run — every deploy, the model pass, the
// loaded passes, the ladder, the durability check — against the hang
// ROADMAP files as P0: each of them blocks on a queue round trip with no
// deadline of its own. When no op completes for hangTimeout it dumps
// every goroutine, reports how far the run got (what is left of the
// schedule counts as failed) and exits non-zero without a result line,
// so a hang costs half a minute and leaves a dump instead of running
// into the caller's timeout.
type watchdog struct {
	what string
	ops  atomic.Int64 // ops, deploys and replays completed so far
}

// tick records one completed op.
func (d *watchdog) tick() { d.ops.Add(1) }

// startWatchdog starts the guard of one run; stop ends it and waits for
// its goroutine.
func startWatchdog(what string) (d *watchdog, stop func()) {
	d = &watchdog{what: what}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(hangTimeout / 10)
		defer tick.Stop()
		seen, since := d.ops.Load(), time.Now()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				if n := d.ops.Load(); n != seen {
					seen, since = n, now
					continue
				}
				if idle := now.Sub(since); idle >= hangTimeout {
					fmt.Fprintf(watchdogOut, "benchmark: watchdog: no op completed for %v on %s after %d completions; the rest of the run counts as failed\n",
						idle.Round(time.Second), d.what, seen)
					pprof.Lookup("goroutine").WriteTo(watchdogOut, 2)
					watchdogExit(3)
					since = now // reached only when the test replaced watchdogExit
				}
			}
		}
	}()
	return d, func() {
		close(quit)
		<-exited
	}
}
