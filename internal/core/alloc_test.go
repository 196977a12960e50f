package core

import (
	"testing"

	"github.com/ict-repro/mpid/internal/kv"
)

// Absolute allocation gates on the send buffer: the arena exists so that
// buffering a pair and cycling a spill do not allocate per pair.

// TestArenaAddWarmAllocatesNothing: once the arena has seen a key set and
// been reset, re-buffering the same keys (with incremental combining) must
// allocate nothing per Send.
func TestArenaAddWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	buf := newArenaBuffer()
	keys := benchKeys(4096)
	value := kv.AppendVLong(nil, 1)
	for _, k := range keys { // warm: grow arenas, tables and scratch
		buf.add(k, value, sumCombiner)
	}
	buf.reset()
	i := 0
	allocs := testing.AllocsPerRun(10*len(keys), func() {
		buf.add(keys[i%len(keys)], value, sumCombiner)
		if i++; i%len(keys) == 0 {
			buf.reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm arenaBuffer.add allocates %.2f/op, want 0", allocs)
	}
}

// TestSpillCycleAllocsPerPair: a 4096-pair fill + realign + reset cycle
// into retained partition buffers must stay under one allocation per 100
// pairs — a per-cycle constant is fine, a per-pair cost is not.
func TestSpillCycleAllocsPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	buf := newArenaBuffer()
	keys := benchKeys(4096)
	value := kv.AppendVLong(nil, 1)
	parts := make([][]byte, spillBenchParts)
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		if e := fillAndSpill(buf, keys, value, parts); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := float64(len(keys)) / 100; allocs >= limit {
		t.Fatalf("fill+spill cycle of %d pairs allocates %.1f, want < %.2f", len(keys), allocs, limit)
	}
	t.Logf("fill+spill cycle of %d pairs: %.1f allocs", len(keys), allocs)
}
