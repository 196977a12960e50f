package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mpi"
)

// ---------------------------------------------------------------------------
// Send-buffer accounting (satellite: incremental byte accounting regression)

// truePayload recomputes a buffer's payload byte count the slow way: each
// key once plus every buffered value.
func truePayload(t *testing.T, b *arenaBuffer) int {
	t.Helper()
	total := 0
	err := b.forEachSorted(func(key []byte, values [][]byte) error {
		total += len(key)
		for _, v := range values {
			total += len(v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestSendBufferAccountingAcrossCombineAndSpillCycles(t *testing.T) {
	t.Run("arena", func(t *testing.T) {
		b := newArenaBuffer()
		// Three fill/spill cycles; the hot key crosses combineEvery
		// several times per cycle, so the incremental combiner's
		// accounting adjustments are exercised repeatedly.
		for cycle := 0; cycle < 3; cycle++ {
			for i := 0; i < 3*combineEvery; i++ {
				key := []byte(fmt.Sprintf("key-%d", i%5))
				if i%2 == 0 {
					key = []byte("hot")
				}
				b.add(key, kv.AppendVLong(nil, int64(i%9+1)), sumCombiner)
				if i%257 == 0 {
					if got, want := b.bytes(), truePayload(t, b); got != want {
						t.Fatalf("cycle %d pair %d: bytes() = %d, true payload %d", cycle, i, got, want)
					}
				}
			}
			if got, want := b.bytes(), truePayload(t, b); got != want {
				t.Fatalf("cycle %d end: bytes() = %d, true payload %d", cycle, got, want)
			}
			b.reset()
			if b.bytes() != 0 || !b.empty() {
				t.Fatalf("cycle %d: reset left bytes=%d empty=%v", cycle, b.bytes(), b.empty())
			}
		}
	})
}

func TestArenaBufferGrowAndChains(t *testing.T) {
	b := newArenaBuffer()
	// Far more distinct keys than the initial slot table holds.
	const keys = 10 * arenaInitSlots
	for round := 0; round < 3; round++ {
		for i := 0; i < keys; i++ {
			b.add([]byte(fmt.Sprintf("key-%05d", i)), []byte{byte(round)}, nil)
		}
	}
	seen := 0
	prev := []byte(nil)
	err := b.forEachSorted(func(key []byte, values [][]byte) error {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return fmt.Errorf("keys out of order: %q then %q", prev, key)
		}
		prev = append(prev[:0], key...)
		if len(values) != 3 {
			return fmt.Errorf("key %q has %d values, want 3", key, len(values))
		}
		for round, v := range values {
			if len(v) != 1 || v[0] != byte(round) {
				return fmt.Errorf("key %q value %d = %v (chain order broken)", key, round, v)
			}
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != keys {
		t.Fatalf("iterated %d keys, want %d", seen, keys)
	}
}

// ---------------------------------------------------------------------------
// Typed unexpected-tag error (satellite)

func TestUnexpectedTagReturnsTypedError(t *testing.T) {
	var recvErr error
	err := mpi.Run(2, func(c *mpi.Comm) error {
		d, err := Init(Config{Comm: c, Reducers: []int{0}, Senders: []int{1}})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := d.Send([]byte("alpha"), kv.AppendVLong(nil, 1)); err != nil {
				return err
			}
			if err := d.Flush(); err != nil {
				return err
			}
			// A stray, off-protocol message lands mid-stream, before the
			// Done marker.
			if err := c.Send(0, 7777, []byte("not mpid traffic")); err != nil {
				return err
			}
			return d.Finalize()
		}
		for {
			_, _, err := d.Recv()
			if err == io.EOF {
				return errors.New("reducer reached EOF without seeing the stray tag")
			}
			if err != nil {
				recvErr = err
				return nil // swallow so mpi.Run reports no error; we assert below
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var tagErr *UnexpectedTagError
	if !errors.As(recvErr, &tagErr) {
		t.Fatalf("Recv error = %v, want *UnexpectedTagError", recvErr)
	}
	if tagErr.Tag != 7777 || tagErr.Source != 1 {
		t.Fatalf("typed error = %+v, want tag 7777 from rank 1", tagErr)
	}
}

// ---------------------------------------------------------------------------
// Recv streams against a sequential oracle

// streamEntry is one Recv result with its bytes deep-copied out of the
// library's buffers.
type streamEntry struct {
	key    []byte
	values [][]byte
}

// collectStreams runs one MPI-D exchange and captures every reducer's exact
// Recv stream, in order, plus the number of data messages the senders
// shipped.
func collectStreams(t *testing.T, cfg Config, nRanks int, pairsBySender map[int][]kv.Pair) (map[int][]streamEntry, int64) {
	t.Helper()
	streams := make(map[int][]streamEntry)
	var messages int64
	var mu sync.Mutex
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := cfg
		local.Comm = c
		d, err := Init(local)
		if err != nil {
			return err
		}
		if d.IsSender() {
			for _, p := range pairsBySender[c.Rank()] {
				if err := d.SendPair(p); err != nil {
					return err
				}
			}
			if err := d.CloseSend(); err != nil {
				return err
			}
		}
		if d.IsReducer() {
			var local []streamEntry
			for {
				key, values, err := d.Recv()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				e := streamEntry{key: append([]byte(nil), key...)}
				for _, v := range values {
					e.values = append(e.values, append([]byte(nil), v...))
				}
				local = append(local, e)
			}
			mu.Lock()
			streams[c.Rank()] = local
			mu.Unlock()
		}
		err = d.Finalize()
		mu.Lock()
		messages += d.Counters().MessagesSent
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return streams, messages
}

// oracleStreams is the sequential reference for a grouped exchange. Each
// sender's buffer is modelled as §IV.A specifies it: pairs grouped by key,
// payload counted as each distinct key once plus every value, a key's list
// folded by the combiner once it holds combineEvery values, and a spill —
// combine, sort values under SortValues, partition — whenever the payload
// reaches SpillThreshold, plus one at close. Every reducer then sees each
// of its keys exactly once, keys sorted, values in spill order (senders in
// rank order).
func oracleStreams(cfg Config, pairsBySender map[int][]kv.Pair) map[int][]streamEntry {
	partition := cfg.Partitioner
	if partition == nil {
		partition = HashPartitioner
	}
	byReducer := make(map[int]map[string][][]byte)
	for _, r := range cfg.Reducers {
		byReducer[r] = make(map[string][][]byte)
	}
	var senders []int
	for s := range pairsBySender {
		senders = append(senders, s)
	}
	sort.Ints(senders)
	for _, s := range senders {
		buf := make(map[string][][]byte)
		payload := 0
		spill := func() {
			for k, vs := range buf {
				if cfg.Combiner != nil {
					vs = cfg.Combiner([]byte(k), vs)
				}
				if cfg.SortValues {
					sortValueList(vs)
				}
				r := cfg.Reducers[partition([]byte(k), len(cfg.Reducers))]
				byReducer[r][k] = append(byReducer[r][k], vs...)
			}
			buf, payload = make(map[string][][]byte), 0
		}
		for _, p := range pairsBySender[s] {
			k := string(p.Key)
			vs, seen := buf[k]
			if !seen {
				payload += len(k)
			}
			vs = append(vs, p.Value)
			payload += len(p.Value)
			if cfg.Combiner != nil && len(vs) >= combineEvery {
				payload -= valueBytes(vs)
				vs = cfg.Combiner([]byte(k), vs)
				payload += valueBytes(vs)
			}
			buf[k] = vs
			if payload >= cfg.SpillThreshold {
				spill()
			}
		}
		spill()
	}
	out := make(map[int][]streamEntry)
	for r, groups := range byReducer {
		entries := make([]streamEntry, 0, len(groups))
		for k, vs := range groups {
			entries = append(entries, streamEntry{key: []byte(k), values: vs})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		out[r] = entries
	}
	return out
}

func valueBytes(vs [][]byte) int {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	return n
}

// streamsEqual requires got to match want entry for entry, byte for byte.
func streamsEqual(t *testing.T, want, got map[int][]streamEntry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("reducer count: want %d, got %d", len(want), len(got))
	}
	for rank, ws := range want {
		gs := got[rank]
		if len(ws) != len(gs) {
			t.Fatalf("rank %d: want %d entries, got %d", rank, len(ws), len(gs))
		}
		for i := range ws {
			if !bytes.Equal(ws[i].key, gs[i].key) {
				t.Fatalf("rank %d entry %d: key want %q, got %q", rank, i, ws[i].key, gs[i].key)
			}
			if len(ws[i].values) != len(gs[i].values) {
				t.Fatalf("rank %d key %q: want %d values, got %d", rank, ws[i].key, len(ws[i].values), len(gs[i].values))
			}
			for j := range ws[i].values {
				if !bytes.Equal(ws[i].values[j], gs[i].values[j]) {
					t.Fatalf("rank %d key %q value %d: want %x, got %x", rank, ws[i].key, j, ws[i].values[j], gs[i].values[j])
				}
			}
		}
	}
}

// foldedSums sums every VLong value per (rank, key) across a stream — the
// result sumCombiner-folded streams must agree on however the folding was
// split across spills and fragments.
func foldedSums(t *testing.T, streams map[int][]streamEntry) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for rank, entries := range streams {
		for _, e := range entries {
			for _, v := range e.values {
				n, _, err := kv.ReadVLong(v)
				if err != nil {
					t.Fatalf("rank %d key %q: %v", rank, e.key, err)
				}
				out[fmt.Sprintf("%d/%s", rank, e.key)] += n
			}
		}
	}
	return out
}

func sumsEqual(t *testing.T, want, got map[string]int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("distinct (rank, key) count: want %d, got %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("%s: folded sum want %d, got %d (present %v)", k, w, g, ok)
		}
	}
}

// keysOnceSorted requires every reducer's stream to carry strictly
// increasing keys: each key delivered exactly once, in order.
func keysOnceSorted(t *testing.T, streams map[int][]streamEntry) {
	t.Helper()
	for rank, entries := range streams {
		for i := 1; i < len(entries); i++ {
			if bytes.Compare(entries[i-1].key, entries[i].key) >= 0 {
				t.Fatalf("rank %d: key %q followed by %q", rank, entries[i-1].key, entries[i].key)
			}
		}
	}
}

// genPairs produces a deterministic workload with hot keys (deep combiner
// folds), a long key tail and varied values.
func genPairs(n int, salt byte) []kv.Pair {
	pairs := make([]kv.Pair, n)
	for i := range pairs {
		var key []byte
		switch {
		case i%3 == 0:
			key = []byte("hot")
		case i%3 == 1:
			key = []byte(fmt.Sprintf("warm-%d", i%7))
		default:
			key = []byte(fmt.Sprintf("cold-%04d", i))
		}
		pairs[i] = kv.Pair{Key: key, Value: kv.AppendVLong(nil, int64(int(salt)+i%11+1))}
	}
	return pairs
}

// TestGroupedStreamByteIdentical drives a single-sender workload through
// the core and checks the reducer-visible Recv stream against the
// sequential oracle. A single sender makes arrival order deterministic
// (per-pair FIFO), so without a combiner the check is byte for byte; the
// tiny spill threshold forces many runs and the small merge factor forces
// background ordered passes. With a combiner, keys must still arrive
// sorted and exactly once, and each key's folded sum must match.
func TestGroupedStreamByteIdentical(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(c *Config) {}},
		{"combiner", func(c *Config) { c.Combiner = sumCombiner }},
		{"sortValues", func(c *Config) { c.SortValues = true }},
		{"combiner+sortValues", func(c *Config) { c.Combiner = sumCombiner; c.SortValues = true }},
		{"async", func(c *Config) { c.Async = true }},
	}
	pairs := map[int][]kv.Pair{1: genPairs(4000, 3)}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := Config{Reducers: []int{0}, Senders: []int{1}, SpillThreshold: 512, MergeFactor: 3}
			v.mut(&cfg)
			got, _ := collectStreams(t, cfg, 2, pairs)
			want := oracleStreams(cfg, pairs)
			if cfg.Combiner == nil {
				streamsEqual(t, want, got)
				return
			}
			keysOnceSorted(t, got)
			sumsEqual(t, foldedSums(t, want), foldedSums(t, got))
		})
	}
}

// TestStreamingStreamByteIdentical checks streaming mode, where fragments
// arrive per message instead of merged per key: every message is one
// spill serialized in sorted key order, so the fragment stream breaks into
// at most one strictly increasing key run per message, and the fold over
// all fragments must match the oracle's.
func TestStreamingStreamByteIdentical(t *testing.T) {
	pairs := map[int][]kv.Pair{1: genPairs(3000, 5)}
	cfg := Config{Reducers: []int{0}, Senders: []int{1}, SpillThreshold: 768, Streaming: true, Combiner: sumCombiner}
	got, messages := collectStreams(t, cfg, 2, pairs)
	frags := got[0]
	runs := 0
	for i := range frags {
		if i == 0 || bytes.Compare(frags[i-1].key, frags[i].key) >= 0 {
			runs++
		}
	}
	if messages < 2 {
		t.Fatalf("only %d messages shipped; the spill threshold should force many", messages)
	}
	if int64(runs) > messages {
		t.Fatalf("%d sorted fragment runs from %d messages: some message was not in key order", runs, messages)
	}
	sumsEqual(t, foldedSums(t, oracleStreams(cfg, pairs)), foldedSums(t, got))
}

// TestGroupedMultiSenderAggregateEquivalent checks the core under
// concurrent senders against the oracle. Arrival order across senders is
// racy, so the per-key value order is not deterministic; keys (sorted,
// exactly once) and per-key value multisets must still agree.
func TestGroupedMultiSenderAggregateEquivalent(t *testing.T) {
	pairs := map[int][]kv.Pair{2: genPairs(2500, 1), 3: genPairs(2500, 9), 4: genPairs(1000, 4)}
	cfg := Config{Reducers: []int{0, 1}, Senders: []int{2, 3, 4}, SpillThreshold: 1024, MergeFactor: 3, Combiner: sumCombiner}
	got, _ := collectStreams(t, cfg, 5, pairs)
	keysOnceSorted(t, got)

	multisets := func(streams map[int][]streamEntry) map[string][]string {
		out := make(map[string][]string)
		for rank, entries := range streams {
			for _, e := range entries {
				var vs []string
				for _, v := range e.values {
					vs = append(vs, string(v))
				}
				sort.Strings(vs)
				out[fmt.Sprintf("%d/%s", rank, e.key)] = vs
			}
		}
		return out
	}
	w, g := multisets(oracleStreams(cfg, pairs)), multisets(got)
	if len(w) != len(g) {
		t.Fatalf("distinct (rank, key) count: want %d, got %d", len(w), len(g))
	}
	for k, wv := range w {
		gv := g[k]
		if len(wv) != len(gv) {
			t.Fatalf("%s: want %d values, got %d", k, len(wv), len(gv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("%s value %d: want %x, got %x", k, i, wv[i], gv[i])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// TCP faults: the fast path keeps PR 1's retry semantics (satellite)

// TestFastPathTCPFaultRetry injects a one-shot write fault under an MPI-D
// exchange over the real TCP transport: the sender's flush must surface the
// injected error (not silently lose the frame), and re-sending over the
// same world must redial and deliver everything — the transport retry
// semantics PR 1 established, now exercised through the pooled
// eager/rendezvous write path.
func TestFastPathTCPFaultRetry(t *testing.T) {
	sizes := []struct {
		name    string
		valSize int
	}{
		{"eager", 8},             // whole spill below the rendezvous threshold
		{"rendezvous", 96 << 10}, // single value forces the direct-write path
	}
	for _, sz := range sizes {
		t.Run(sz.name, func(t *testing.T) {
			inj := faults.New(1, faults.Rule{Component: "mpi.rank1", Operation: "write", Until: 1, Action: faults.Drop})
			w, err := mpi.NewTCPWorldWithFaults(2, inj)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			value := bytes.Repeat([]byte{0xAB}, sz.valSize)
			var got int
			var wg sync.WaitGroup
			wg.Add(1)
			errCh := make(chan error, 2)
			go func() { // reducer, rank 0
				defer wg.Done()
				d, err := Init(Config{Comm: w.Comm(0), Reducers: []int{0}, Senders: []int{1}})
				if err != nil {
					errCh <- err
					return
				}
				for {
					_, values, err := d.Recv()
					if err == io.EOF {
						return
					}
					if err != nil {
						errCh <- err
						return
					}
					got += len(values)
				}
			}()

			d, err := Init(Config{Comm: w.Comm(1), Reducers: []int{0}, Senders: []int{1}})
			if err != nil {
				t.Fatal(err)
			}
			send := func() error {
				for i := 0; i < 5; i++ {
					if err := d.Send([]byte(fmt.Sprintf("key-%d", i)), value); err != nil {
						return err
					}
				}
				return d.Flush()
			}
			// First attempt: the injected drop must surface as an error.
			if err := send(); !faults.IsInjected(err) {
				t.Fatalf("first send attempt: err = %v, want injected fault", err)
			}
			// Retry on the same world: the transport redials and delivers.
			if err := send(); err != nil {
				t.Fatalf("retry after injected fault: %v", err)
			}
			if err := d.Finalize(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if got != 5 {
				t.Fatalf("reducer received %d pairs, want the 5 retried ones", got)
			}
		})
	}
}
