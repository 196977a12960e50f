package shuffle

import (
	"fmt"
	"sort"
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

// mergeAllocsPerKeyListBound caps the ordered merger's allocations per
// input key list. Draining the same runs through a buffer-everything Go map
// plus one sort costs 2.42 per key list; the merger measures 1.84, stable
// across repeated runs, so the bound leaves headroom for scheduling jitter
// in the background passes while still failing well before the map drain's
// cost is reached.
const mergeAllocsPerKeyListBound = 2.1

// sortedRuns serializes nRuns sorted runs of keysPerRun key lists, each
// key list holding two values, with overlapping key ranges so the merge
// has real cross-run grouping to do — the grouped receive drain's input
// shape.
func sortedRuns(nRuns, keysPerRun int) [][]byte {
	value := kv.AppendVLong(nil, 1)
	runs := make([][]byte, nRuns)
	for r := range runs {
		keys := make([]string, keysPerRun)
		for k := range keys {
			keys[k] = fmt.Sprintf("key-%06d", (k*nRuns+r)%(keysPerRun*2))
		}
		sort.Strings(keys)
		var data []byte
		for _, k := range keys {
			data = kv.AppendKeyList(data, kv.KeyList{Key: []byte(k), Values: [][]byte{value, value}})
		}
		runs[r] = data
	}
	return runs
}

// TestOrderedMergeAllocsPerKeyList is the absolute allocation gate on the
// grouped receive drain: 24 runs of 512 key lists through an ordered
// Merger (fan-in 10, pooled buffers, runs copied in as a transport would
// deliver them) must stay under mergeAllocsPerKeyListBound allocations per
// input key list.
func TestOrderedMergeAllocsPerKeyList(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const nRuns, keysPerRun = 24, 512
	runs := sortedRuns(nRuns, keysPerRun)
	pool := NewBufferPool()
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		m := NewMerger(Config{Factor: 10, Ordered: true, Pool: pool})
		for seq, r := range runs {
			data := pool.Get(len(r))
			copy(data, r)
			m.Add(seq, data)
		}
		if e := m.Merge(func(kv.KeyList) error { return nil }); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	perKeyList := allocs / (nRuns * keysPerRun)
	t.Logf("ordered merge: %.0f allocs, %.3f per input key list", allocs, perKeyList)
	if perKeyList >= mergeAllocsPerKeyListBound {
		t.Fatalf("ordered merge allocates %.3f per input key list, want < %.2f", perKeyList, mergeAllocsPerKeyListBound)
	}
}
