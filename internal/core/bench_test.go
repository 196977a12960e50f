package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/shuffle"
)

// Micro-benchmarks for the MPI-D hot path. Run with -benchmem (ReportAllocs
// is set regardless): the allocs/op column is the contract, pinned by the
// AllocsPerRun tests in alloc_test.go.

// benchKeys is a mixed workload: one hot key, a warm band, a cold tail.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		switch {
		case i%3 == 0:
			keys[i] = []byte("hot")
		case i%3 == 1:
			keys[i] = []byte(fmt.Sprintf("warm-%d", i%17))
		default:
			keys[i] = []byte(fmt.Sprintf("cold-%05d", i%2048))
		}
	}
	return keys
}

// BenchmarkSend measures buffering one pair (the Send fast path minus the
// MPI world), including the incremental combiner and the spill-cycle reset.
func BenchmarkSend(b *testing.B) {
	buf := newArenaBuffer()
	keys := benchKeys(4096)
	value := kv.AppendVLong(nil, 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(value) + 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.add(keys[i%len(keys)], value, sumCombiner)
		if buf.bytes() >= 1<<20 {
			buf.reset()
		}
	}
}

// BenchmarkSpill measures one full fill + realign cycle: buffer 4096 pairs,
// serialize them partition-by-partition in sorted key order into retained
// buffers, reset. This is spill() minus the transport.
func BenchmarkSpill(b *testing.B) {
	buf := newArenaBuffer()
	keys := benchKeys(4096)
	value := kv.AppendVLong(nil, 1)
	parts := make([][]byte, spillBenchParts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fillAndSpill(buf, keys, value, parts); err != nil {
			b.Fatal(err)
		}
	}
}

// spillBenchParts is the partition count of the fill+spill cycle.
const spillBenchParts = 4

// fillAndSpill buffers one value per key, realigns the buffer into the
// retained partition buffers in sorted key order, and resets it — one
// spill cycle minus the transport.
func fillAndSpill(buf *arenaBuffer, keys [][]byte, value []byte, parts [][]byte) error {
	for _, k := range keys {
		buf.add(k, value, sumCombiner)
	}
	for p := range parts {
		parts[p] = parts[p][:0]
	}
	err := buf.forEachSorted(func(key []byte, values [][]byte) error {
		p := HashPartitioner(key, len(parts))
		parts[p] = kv.AppendKeyList(parts[p], kv.KeyList{Key: key, Values: values})
		return nil
	})
	buf.reset()
	return err
}

// genRuns serializes nRuns sorted runs the way spill does, each covering an
// overlapping key range so the merge has real cross-run grouping to do.
func genRuns(nRuns, keysPerRun int) [][]byte {
	runs := make([][]byte, nRuns)
	value := kv.AppendVLong(nil, 1)
	for r := range runs {
		var data []byte
		for k := 0; k < keysPerRun; k++ {
			key := fmt.Sprintf("key-%06d", (k*nRuns+r)%(keysPerRun*2))
			data = kv.AppendKeyList(data, kv.KeyList{Key: []byte(key), Values: [][]byte{value, value}})
		}
		runs[r] = sortRun(data)
	}
	return runs
}

// sortRun re-sorts a run's frames by key (genRuns builds them unsorted).
func sortRun(data []byte) []byte {
	var frames []kv.KeyList
	for rest := data; len(rest) > 0; {
		kl, n, err := kv.ReadKeyList(rest)
		if err != nil {
			panic(err)
		}
		frames = append(frames, kl)
		rest = rest[n:]
	}
	sort.Slice(frames, func(i, j int) bool { return kv.Compare(frames[i].Key, frames[j].Key) < 0 })
	out := make([]byte, 0, len(data))
	for _, f := range frames {
		out = kv.AppendKeyList(out, f)
	}
	return out
}

// BenchmarkRecvMerge drains pre-serialized runs through the grouped
// receiver's streaming ordered k-way merge.
func BenchmarkRecvMerge(b *testing.B) {
	runs := genRuns(24, 512)
	var total int64
	for _, r := range runs {
		total += int64(len(r))
	}
	pool := bufpool.New()
	b.ReportAllocs()
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := shuffle.NewMerger(shuffle.Config{Factor: 10, Ordered: true, Pool: pool})
		for seq, r := range runs {
			// The merger may recycle consumed runs into the pool, so
			// hand it a copy, as the transport would.
			data := pool.Get(len(r))
			copy(data, r)
			m.Add(seq, data)
		}
		keys := 0
		if err := m.Merge(func(kl kv.KeyList) error { keys++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
