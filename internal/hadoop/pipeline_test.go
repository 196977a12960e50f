package hadoop

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/ict-repro/mpid/internal/faults"
	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/trace"
)

// Pipeline tests: the pipelined shuffle (sorted spills + concurrent
// k-way merge) must produce output byte-identical to the same job on the
// MPI-D core (mapred.Run) — fault-free, under chaos, and with wire
// compression on — and its merge passes must visibly overlap the copy
// phase in the trace.

// coreReference runs job on the MPI-D core and returns its canonical
// framed output, the reference every hadoop run here must match.
func coreReference(t *testing.T, job mapred.Job, splits []mapred.Split) []byte {
	t.Helper()
	res, err := mapred.Run(job, splits, 3)
	if err != nil {
		t.Fatalf("MPI-D core run: %v", err)
	}
	return encodePairs(res.Pairs())
}

// runBoth runs one job through the hadoop engine and the MPI-D core and
// returns the framed outputs for byte-exact comparison.
func runBoth(t *testing.T, job mapred.Job, splits []mapred.Split, cfg Config) (pipelined, reference []byte) {
	t.Helper()
	res, err := Run(job, splits, cfg)
	if err != nil {
		t.Fatalf("pipelined run: %v", err)
	}
	return encodePairs(res.Pairs()), coreReference(t, job, splits)
}

// TestPipelinedMatchesLegacy sweeps map/reduce shapes — including ones
// where maps far exceed MergeFactor, so intermediate passes actually run —
// and checks byte-identical output against the MPI-D core.
func TestPipelinedMatchesLegacy(t *testing.T) {
	cases := []struct {
		name     string
		size     int
		split    int
		reducers int
		factor   int
	}{
		{"few-maps", 20_000, 5_000, 2, 10},      // below factor: final merge only
		{"many-maps", 80_000, 2_000, 3, 4},      // 40 maps, factor 4: deep pass tree
		{"single-reducer", 60_000, 3_000, 1, 3}, // everything funnels into one merger
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			text := genText(t, tc.size, 23)
			splits := mapred.SplitText(text, tc.split)
			job := wcJob(tc.reducers)
			got, want := runBoth(t, job, splits, Config{NumTrackers: 3, MergeFactor: tc.factor})
			if !bytes.Equal(got, want) {
				t.Fatalf("pipelined output differs from the MPI-D core (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestPipelinedMatchesLegacyNoCombiner covers the path where merge passes
// concatenate multi-run value lists instead of combining them.
func TestPipelinedMatchesLegacyNoCombiner(t *testing.T) {
	text := genText(t, 50_000, 31)
	splits := mapred.SplitText(text, 2_500) // 20 maps
	job := wcJob(2)
	job.Combiner = nil
	got, want := runBoth(t, job, splits, Config{NumTrackers: 2, MergeFactor: 4})
	if !bytes.Equal(got, want) {
		t.Fatalf("no-combiner pipelined output differs from the MPI-D core (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPipelinedMatchesLegacyOrderInsensitive drives a reducer that
// canonicalizes its value list before emitting — the strictest
// order-insensitive check of multi-run value merging: every value byte
// must survive the pass tree, in any order.
func TestPipelinedMatchesLegacyOrderInsensitive(t *testing.T) {
	// Map each word to "word -> split-local occurrence tag"; the reducer
	// sorts and joins the tags, so outputs match iff the merged value
	// multisets match exactly.
	tagMapper := mapred.MapperFunc(func(_, line []byte, emit mapred.Emit) error {
		for i, w := range bytes.Fields(line) {
			tag := fmt.Sprintf("%s#%d", w, i)
			if err := emit(w, []byte(tag)); err != nil {
				return err
			}
		}
		return nil
	})
	joinReducer := mapred.ReducerFunc(func(key []byte, values [][]byte, emit mapred.Emit) error {
		tags := make([]string, len(values))
		for i, v := range values {
			tags[i] = string(v)
		}
		sort.Strings(tags)
		return emit(key, []byte(fmt.Sprint(tags)))
	})
	text := genText(t, 40_000, 17)
	splits := mapred.SplitText(text, 2_000) // 20 maps
	job := mapred.Job{Name: "tag-join", Mapper: tagMapper, Reducer: joinReducer, NumReducers: 3}
	got, want := runBoth(t, job, splits, Config{NumTrackers: 3, MergeFactor: 3})
	if !bytes.Equal(got, want) {
		t.Fatalf("order-insensitive output differs from the MPI-D core (%d vs %d bytes)", len(got), len(want))
	}
}

// TestPipelinedMatchesLegacyUnderChaos repeats the flaky-RPC chaos run:
// injected failures, retries and map re-executions must not break the
// byte-identical guarantee against the MPI-D core.
func TestPipelinedMatchesLegacyUnderChaos(t *testing.T) {
	text := genText(t, 40_000, 7)
	splits := mapred.SplitText(text, 2_000) // 20 maps
	job := wcJob(3)
	cfg := Config{
		NumTrackers: 3,
		MergeFactor: 4,
		Injector: faults.New(42, faults.Rule{
			Component:   "hadooprpc.client",
			Operation:   "call",
			Probability: 0.1,
			Action:      faults.Fail,
		}),
		RPC: hadooprpc.Options{
			MaxAttempts: 8,
			Backoff:     faults.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		},
	}
	res, err := Run(job, splits, cfg)
	if err != nil {
		t.Fatalf("pipelined under chaos: %v", err)
	}
	if got, want := encodePairs(res.Pairs()), coreReference(t, job, splits); !bytes.Equal(got, want) {
		t.Fatalf("outputs differ under chaos (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCompressedShuffleMatches turns wire compression on and checks the
// output still matches the uncompressed run and the MPI-D core, and that
// compressed fetches actually happened.
func TestCompressedShuffleMatches(t *testing.T) {
	text := genText(t, 40_000, 13)
	splits := mapred.SplitText(text, 4_000)
	job := wcJob(2)
	plain, err := Run(job, splits, Config{NumTrackers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := RunWithReport(job, splits, Config{NumTrackers: 2, CompressShuffle: true})
	if err != nil {
		t.Fatalf("compressed run: %v", err)
	}
	if got, want := encodePairs(res.Pairs()), encodePairs(plain.Pairs()); !bytes.Equal(got, want) {
		t.Fatalf("compressed output differs (%d vs %d bytes)", len(got), len(want))
	}
	if got, want := encodePairs(res.Pairs()), coreReference(t, job, splits); !bytes.Equal(got, want) {
		t.Fatalf("compressed output differs from the MPI-D core (%d vs %d bytes)", len(got), len(want))
	}
	if n := rep.Metrics.Counter("shuffle.fetches_compressed"); n == 0 {
		t.Fatal("CompressShuffle on but no compressed fetches recorded")
	}
}

// TestMergeOverlapVisibleInSpans is the trace-level acceptance check: with
// many maps and a small MergeFactor, at least one background merge span
// must lie inside its reduce task's copy-phase span — the copy/merge
// overlap the pipeline exists to create, as it appears in the Chrome trace.
func TestMergeOverlapVisibleInSpans(t *testing.T) {
	text := genText(t, 120_000, 5)
	splits := mapred.SplitText(text, 2_000) // ~60 maps
	job := wcJob(2)
	_, rep, err := RunWithReport(job, splits, Config{NumTrackers: 3, MergeFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Index copy-phase spans by task span id.
	copyByParent := make(map[uint64]trace.Span)
	var merges []trace.Span
	for _, s := range rep.Spans {
		switch {
		case s.Kind == trace.KindPhase && s.Name == "reduce.copy":
			copyByParent[s.Parent] = s
		case s.Kind == trace.KindMerge:
			merges = append(merges, s)
		}
	}
	if len(merges) == 0 {
		t.Fatal("no merge spans recorded — background passes never ran")
	}
	overlapped := 0
	for _, m := range merges {
		cp, ok := copyByParent[m.Parent]
		if !ok {
			continue
		}
		if !m.Start.Before(cp.Start) && !m.Finish.After(cp.Finish) {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatalf("none of %d merge spans fall inside their task's copy phase", len(merges))
	}
	// The report should also carry the overlapped merge time per reducer.
	var mergeTime time.Duration
	for _, rt := range rep.Reduces {
		mergeTime += rt.Merge
	}
	if mergeTime == 0 {
		t.Fatal("reduce timings carry no merge time despite merge passes")
	}
}
