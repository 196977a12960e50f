package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/kv"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/mpi"
	"github.com/ict-repro/mpid/internal/workload"
)

// spec is one workload's shape: the batch job both engines run directly,
// the engine settings, and the small job family the service phase submits.
type spec struct {
	name string
	// build generates the batch job and its input from a seed.
	build func(seed int64) (mapred.Job, []mapred.Split, error)
	// tcp runs MPI-D over the TCP transport instead of the in-process
	// channel transport.
	tcp bool
	// cluster configures the direct Hadoop engine runs.
	cluster hadoop.Config
	// small generates one job of the family the service phase submits.
	small func(seed int64) (mapred.Job, []mapred.Split, error)
	// share is the fraction of the measuring window given to the MPI-D,
	// Hadoop and service phases.
	share [3]float64
}

// mappers is the MPI-D mapper rank count on every workload.
const mappers = 4

// serveCluster is the per-job engine template the service runs with: two
// trackers at the engine's default slots and 2 ms heartbeat.
var serveCluster = hadoop.Config{NumTrackers: 2}

// batchCluster is the direct Hadoop engine for the batch workloads: four
// trackers with one map slot each and a 25 ms heartbeat.
var batchCluster = hadoop.Config{NumTrackers: 4, MapSlots: 1, ReduceSlots: 1, Heartbeat: 25 * time.Millisecond}

var specs = map[string]spec{
	"wordcount": {
		name:    "wordcount",
		build:   func(seed int64) (mapred.Job, []mapred.Split, error) { return wordCount(seed, 50000, 8<<20, 64<<10) },
		cluster: batchCluster,
		small:   smallWordCount,
		share:   [3]float64{0.3, 0.3, 0.4},
	},
	"terasort": {
		name: "terasort",
		build: func(seed int64) (mapred.Job, []mapred.Split, error) {
			return workload.TeraSort(map[string]int64{"records": 200000, "splits": 32, "reducers": 2, "seed": seed})
		},
		tcp:     true,
		cluster: batchCluster,
		// 655 records of 100 bytes: the 64 KiB of the small wordcount.
		small: func(seed int64) (mapred.Job, []mapred.Split, error) {
			return workload.TeraSort(map[string]int64{"records": 655, "splits": 8, "reducers": 2, "seed": seed})
		},
		share: [3]float64{0.3, 0.3, 0.4},
	},
	"serve": {
		name:    "serve",
		build:   smallWordCount,
		cluster: serveCluster,
		small:   smallWordCount,
		share:   [3]float64{0.15, 0.15, 0.7},
	},
}

// smallWordCount is the service's job: 64 KiB of text over the suite's
// 500-word vocabulary in 8 KiB splits.
func smallWordCount(seed int64) (mapred.Job, []mapred.Split, error) {
	return wordCount(seed, 500, 64<<10, 8<<10)
}

// wordCount is the suite's WordCount job (mapper, summing reducer and
// derived combiner, two reducers) over size bytes of Zipf text in splits of
// split bytes. The vocabulary is the same for every seed and only the text
// drawn from it varies, so that seeds change the input but not its shape:
// a vocabulary drawn per seed moves the words' lengths, and with them the
// emit count and cost of a job, by up to 10%.
func wordCount(seed int64, vocab, size, split int) (mapred.Job, []mapred.Split, error) {
	job, _, err := workload.WordCount(map[string]int64{"bytes": 1, "reducers": 2})
	if err != nil {
		return job, nil, err
	}
	text := workload.NewTextGenerator(workload.NewVocabulary(vocab, 1), 1.15, seed).BytesOfText(size)
	return job, mapred.SplitText(text, split), nil
}

// runMPID runs one job on the MPI-D engine over the workload's transport.
func (s spec) runMPID(job mapred.Job, splits []mapred.Split) (*mapred.Result, error) {
	if !s.tcp {
		return mapred.Run(job, splits, mappers)
	}
	return mapred.RunOnWorld(job, splits, mappers, mpi.NewTCPWorld)
}

// inputDigest fingerprints a job's input records, split by split.
func inputDigest(splits []mapred.Split) (string, error) {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, sp := range splits {
		err := sp.Records(func(k, v []byte) error {
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(k)))])
			h.Write(k)
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(v)))])
			h.Write(v)
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// canonicalDigest fingerprints a job's output independently of engine and
// reducer placement: every pair, in the canonical (key, value) order of
// Result.Pairs, length-framed.
func canonicalDigest(res *mapred.Result) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, p := range res.Pairs() {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(p.Key)))])
		h.Write(p.Key)
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(p.Value)))])
		h.Write(p.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// referenceResult runs a job sequentially, with no engine at all: every
// split's records through the mapper, the emissions grouped by key, every
// group through the reducer in key order, and each output pair placed on the
// reducer the job's partitioner picks, in the order the reducer emits it. It
// is the oracle both engines are gated against.
func referenceResult(job mapred.Job, splits []mapred.Split) (*mapred.Result, error) {
	groups := make(map[string][][]byte)
	emit := func(k, v []byte) error {
		groups[string(k)] = append(groups[string(k)], append([]byte(nil), v...))
		return nil
	}
	for _, sp := range splits {
		if err := sp.Records(func(k, v []byte) error { return job.Mapper.Map(k, v, emit) }); err != nil {
			return nil, fmt.Errorf("reference map: %w", err)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := job.NumReducers
	if n <= 0 {
		n = 1
	}
	part := job.Partitioner
	if part == nil {
		part = core.HashPartitioner
	}
	res := &mapred.Result{ByReducer: make([][]kv.Pair, n), MapTasks: len(splits)}
	for _, k := range keys {
		key := []byte(k)
		p := part(key, n)
		var out []kv.Pair
		err := job.Reducer.Reduce(key, groups[k], func(ok, ov []byte) error {
			out = append(out, kv.Pair{Key: append([]byte(nil), ok...), Value: append([]byte(nil), ov...)})
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("reference reduce %q: %w", k, err)
		}
		res.ByReducer[p] = append(res.ByReducer[p], out...)
	}
	return res, nil
}

// gate checks job outputs against the reference digest computed at set-up
// and counts the jobs whose output differs.
type gate struct {
	want   string
	failed int
}

// check reports whether res matches the reference, counting a mismatch.
func (g *gate) check(res *mapred.Result) bool {
	if res != nil && canonicalDigest(res) == g.want {
		return true
	}
	g.failed++
	return false
}
