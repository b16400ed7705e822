package ann

import (
	"slices"
	"testing"
)

// FuzzTopKMerge checks the scatter-gather reduction invariant the
// sharded engine relies on: partitioning a candidate stream into
// arbitrary shards, taking each shard's top-k, and selecting the top-k
// of their concatenation with topK must produce exactly the top-k of
// the unpartitioned stream. Distances are
// quantized to force heavy ties — the case where a non-total order
// would diverge — and IDs are unique, so the expected result is fully
// deterministic. The committed seed corpus (testdata/fuzz) covers
// single-shard, k larger than the stream, and tie-heavy partitions.
func FuzzTopKMerge(f *testing.F) {
	f.Add([]byte("candidate stream with plenty of duplicate distances"), 10, 3)
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5}, 4, 5)
	f.Add([]byte{1}, 16, 2)
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 9, 1, 8, 2}, 1, 4)
	f.Fuzz(func(t *testing.T, data []byte, k, parts int) {
		kk := 1 + abs(k)%32
		np := 1 + abs(parts)%8
		stream := make([]Result, len(data))
		for i, b := range data {
			// Few distinct distances => many ties at every cut line.
			stream[i] = Result{ID: i, dist: float32(b % 7)}
		}
		lists := make([][]Result, np)
		for i, r := range stream {
			p := (int(data[i])*31 + i) % np
			lists[p] = append(lists[p], r)
		}
		var merged []Result
		for p := range lists {
			merged = append(merged, topK(slices.Clone(lists[p]), kk)...)
		}
		got := topK(merged, kk)
		want := topK(slices.Clone(stream), kk)
		if len(got) != len(want) {
			t.Fatalf("merged %d results, want %d (k=%d parts=%d n=%d)", len(got), len(want), kk, np, len(stream))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result %d = %+v, want %+v (k=%d parts=%d)", i, got[i], want[i], kk, np)
			}
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
