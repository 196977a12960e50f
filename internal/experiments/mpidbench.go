package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/bufpool"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/workload"
)

// MPIDBench is the MPI-D core benchmark behind BENCH_mpid.json: the same
// live WordCount job run two ways — through the MPI-D core (arena send
// buffer, pooled partition buffers, streaming receive merge) and through
// the real mini-Hadoop engine (RPC heartbeats + HTTP shuffle). Both run
// the identical job on identical splits, and their outputs are checked
// for equality before anything is timed — the live analogue of the
// paper's Figure 6.

// MPIDBenchConfig shapes one benchmark run.
type MPIDBenchConfig struct {
	// SizeBytes is the generated WordCount input size.
	SizeBytes int64 `json:"size_bytes"`
	// Vocab is the distinct-word universe of the generated text.
	Vocab int `json:"vocab"`
	// SplitBytes is the input split size handed to both engines.
	SplitBytes int `json:"split_bytes"`
	// Mappers is the MPI-D mapper rank count (and Hadoop tracker count).
	Mappers int `json:"mappers"`
	// Reducers is the reducer count for both engines.
	Reducers int `json:"reducers"`
	// HeartbeatMs is the Hadoop engine's scaled heartbeat (see Figure6Live:
	// 25 ms per 64 KB task keeps the scheduling-to-work ratio of the
	// paper's 3 s / 64 MB cluster).
	HeartbeatMs int `json:"heartbeat_ms"`
	// Reps is how many times each path runs; the best time is kept.
	Reps int `json:"reps"`
	// Seed fixes the generated text.
	Seed int64 `json:"seed"`
}

// DefaultMPIDBench is the committed-baseline configuration. The 50k-word
// vocabulary keeps the intermediate data wide enough that combining does
// not collapse it — buffering, realignment and the grouped drain stay on
// the measured path instead of washing out against map time.
func DefaultMPIDBench() MPIDBenchConfig {
	return MPIDBenchConfig{
		SizeBytes: 8 << 20, Vocab: 50000, SplitBytes: 64 << 10,
		Mappers: 4, Reducers: 2, HeartbeatMs: 25, Reps: 5, Seed: 1,
	}
}

// SmokeMPIDBench is a seconds-scale configuration for CI smoke runs.
func SmokeMPIDBench() MPIDBenchConfig {
	return MPIDBenchConfig{
		SizeBytes: 1 << 20, Vocab: 10000, SplitBytes: 64 << 10,
		Mappers: 4, Reducers: 2, HeartbeatMs: 25, Reps: 2, Seed: 1,
	}
}

// MPIDBenchResult is one measurement, the schema of BENCH_mpid.json.
type MPIDBenchResult struct {
	Config          MPIDBenchConfig `json:"config"`
	InputMB         float64         `json:"input_mb"`
	HadoopMs        float64         `json:"hadoop_ms"`         // best-of-reps, mini-Hadoop engine
	FastCoreMs      float64         `json:"fast_core_ms"`      // best-of-reps, MPI-D core
	SpeedupVsHadoop float64         `json:"speedup_vs_hadoop"` // HadoopMs / FastCoreMs
	Timestamp       string          `json:"timestamp,omitempty"`
}

// canonicalPairs sorts a result's pairs by key then value so outputs can
// be compared across engines that emit in different orders.
func canonicalPairs(res *mapred.Result) []kv.Pair {
	pairs := append([]kv.Pair(nil), res.Pairs()...)
	sort.Slice(pairs, func(i, j int) bool {
		if c := bytes.Compare(pairs[i].Key, pairs[j].Key); c != 0 {
			return c < 0
		}
		return bytes.Compare(pairs[i].Value, pairs[j].Value) < 0
	})
	return pairs
}

func pairsEqual(a, b []kv.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// RunMPIDBench generates the input once, validates that both engines
// produce the same reduced output, then times Reps runs of each and
// reports the best wall time per engine.
func RunMPIDBench(cfg MPIDBenchConfig) (*MPIDBenchResult, error) {
	vocab := workload.NewVocabulary(cfg.Vocab, 33)
	text := workload.NewTextGenerator(vocab, 1.15, cfg.Seed).BytesOfText(int(cfg.SizeBytes))
	splits := mapred.SplitText(text, cfg.SplitBytes)
	job := liveWordCountJob()
	job.NumReducers = cfg.Reducers
	hcfg := hadoop.Config{
		NumTrackers: cfg.Mappers, MapSlots: 1, ReduceSlots: 1,
		Heartbeat: time.Duration(cfg.HeartbeatMs) * time.Millisecond,
	}
	pool := bufpool.New()

	runFast := func() (*mapred.Result, error) {
		j := job
		j.Pool = pool
		return mapred.Run(j, splits, cfg.Mappers)
	}
	runHadoop := func() (*mapred.Result, error) {
		return hadoop.Run(job, splits, hcfg)
	}

	// Correctness gate before timing anything: both engines must reduce to
	// the same key/value set.
	fastRes, err := runFast()
	if err != nil {
		return nil, fmt.Errorf("mpidbench: fast core: %w", err)
	}
	hadoopRes, err := runHadoop()
	if err != nil {
		return nil, fmt.Errorf("mpidbench: hadoop engine: %w", err)
	}
	want := canonicalPairs(fastRes)
	if got := canonicalPairs(hadoopRes); !pairsEqual(want, got) {
		return nil, fmt.Errorf("mpidbench: hadoop output differs from fast core (%d vs %d pairs)", len(got), len(want))
	}

	best := func(run func() (*mapred.Result, error)) (time.Duration, error) {
		var b time.Duration
		for i := 0; i < cfg.Reps; i++ {
			start := time.Now()
			if _, err := run(); err != nil {
				return 0, err
			}
			if d := time.Since(start); b == 0 || d < b {
				b = d
			}
		}
		return b, nil
	}

	res := &MPIDBenchResult{Config: cfg, InputMB: float64(len(text)) / (1 << 20)}
	fastBest, err := best(runFast)
	if err != nil {
		return nil, fmt.Errorf("mpidbench: fast core: %w", err)
	}
	hadoopBest, err := best(runHadoop)
	if err != nil {
		return nil, fmt.Errorf("mpidbench: hadoop engine: %w", err)
	}

	res.FastCoreMs = float64(fastBest.Microseconds()) / 1000
	res.HadoopMs = float64(hadoopBest.Microseconds()) / 1000
	if res.FastCoreMs > 0 {
		res.SpeedupVsHadoop = res.HadoopMs / res.FastCoreMs
	}
	return res, nil
}

// MarshalMPIDBench renders the result as the BENCH_mpid.json body.
func MarshalMPIDBench(r *MPIDBenchResult) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RenderMPIDBench prints the comparison table.
func RenderMPIDBench(r *MPIDBenchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "MPI-D core vs Hadoop (live WordCount, %.1f MB input, %d mappers -> %d reducers)\n",
		r.InputMB, r.Config.Mappers, r.Config.Reducers)
	fmt.Fprintf(&b, "  hadoop engine (RPC + HTTP shuffle):      %8.1f ms\n", r.HadoopMs)
	fmt.Fprintf(&b, "  mpi-d fast core (arena + stream merge):  %8.1f ms\n", r.FastCoreMs)
	fmt.Fprintf(&b, "  speedup vs hadoop: %.2fx\n", r.SpeedupVsHadoop)
	return b.String()
}
