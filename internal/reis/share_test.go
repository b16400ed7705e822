package reis

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// liveHeap is the live heap once collections stop freeing anything: the
// flash store drops a dead page's entry in a cleanup after one
// collection, and the next frees its bytes, so a single collection would
// leave an earlier test's pages counted, to be freed inside the next
// measurement.
func liveHeap() int64 {
	var m runtime.MemStats
	last := uint64(math.MaxUint64)
	for i := range 10 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if i >= 2 && m.HeapAlloc >= last {
			break
		}
		last = m.HeapAlloc
		time.Sleep(time.Millisecond) // the cleanups run meanwhile
	}
	return int64(m.HeapAlloc)
}

// TestReplicasShareProgrammedPages: replicas hold one copy of what they
// program. Two hosts deploy one DeployConfig of the benchmark's entry
// size (the churn-size corpus: 256 dimensions, 512-byte documents, 2,048
// entries in 8 clusters); the flash pages the second programs are byte
// for byte the first's, so they add only the page maps' entries and the
// host's own tables, and the second deploy's live-heap growth must stay
// under a tenth of the first's. A change that writes anything
// device-specific into a page (an id, a seed, a timestamp) fails here.
func TestReplicasShareProgrammedPages(t *testing.T) {
	cmd := churnSizeDeploy()
	hosts := [2]*Engine{newEngine(t, AllOptions()), newEngine(t, AllOptions())}
	grew := [2]int64{}
	for i, h := range hosts {
		before := liveHeap()
		mustSubmit(t, h, cmd)
		grew[i] = liveHeap() - before
	}
	t.Logf("live-heap growth: first deploy %d B, second %d B (%.1f %%)", grew[0], grew[1], 100*float64(grew[1])/float64(grew[0]))
	if grew[1]*10 >= grew[0] {
		t.Fatalf("the second replica's deploy grew the live heap by %d B, the first's by %d B: at least a tenth, so the replicas do not share their pages", grew[1], grew[0])
	}
	runtime.KeepAlive(hosts)
}
