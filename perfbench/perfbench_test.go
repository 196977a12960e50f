package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/trace"
	"github.com/ict-repro/mpid/internal/workload"
)

// small is a seconds-scale stand-in for the workloads: the service's
// 64 KiB WordCount, run directly on both engines.
var small = specs["serve"]

// dropKey wraps a reducer so that it loses every output of one key.
type dropKey struct {
	inner mapred.Reducer
	key   []byte
}

func (d dropKey) Reduce(key []byte, values [][]byte, emit mapred.Emit) error {
	if bytes.Equal(key, d.key) {
		return nil
	}
	return d.inner.Reduce(key, values, emit)
}

func TestGateCountsJobThatDropsOneReduceKey(t *testing.T) {
	in, err := prepare(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceResult(in.job, in.splits)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines(small) {
		res, _, err := e.run(in.job, in.splits)
		if err != nil {
			t.Fatal(err)
		}
		if !in.gate.check(res) {
			t.Fatalf("%s: correct job failed the gate", e.name)
		}
		bad := in.job
		bad.Reducer = dropKey{in.job.Reducer, ref.Pairs()[0].Key}
		res, _, err = e.run(bad, in.splits)
		if err != nil {
			t.Fatal(err)
		}
		if in.gate.check(res) {
			t.Fatalf("%s: job missing key %q passed the gate", e.name, ref.Pairs()[0].Key)
		}
	}
	if in.gate.failed != 2 {
		t.Fatalf("gate counted %d failed jobs, want 2", in.gate.failed)
	}
}

func TestSecondSeedChangesInputAndPassesGate(t *testing.T) {
	for name, sp := range map[string]spec{"wordcount": specs["wordcount"], "terasort": specs["terasort"], "serve": small} {
		a, err := prepare(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := prepare(sp, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest == b.digest || a.gate.want == b.gate.want {
			t.Fatalf("%s: seeds 1 and 2 give the same input or output", name)
		}
	}
	in, err := prepare(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines(small) {
		res, _, err := e.run(in.job, in.splits)
		if err != nil || !in.gate.check(res) {
			t.Fatalf("%s on seed 2: output differs from the reference (err %v)", e.name, err)
		}
	}
}

func TestTracedRunRowsSumToWallAndTraceValidates(t *testing.T) {
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	in, err := prepare(small, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("perfbench")
	want := map[string][]string{
		"mpid":   {"mapred.input_ms", "core.send_ms", "core.combine_values_in", "core.recv_groups", "mpi.bytes_per_message"},
		"hadoop": {"hadoop.map_run_ms", "hadoop.user_map_ms", "hadoop.sched_wait_ms", "hadooprpc.calls", "jetty.fetches"},
	}
	for _, e := range engines(small) {
		st := tracedPhase(e, in, 0, 2, tr)
		if st.failed != 0 || len(st.rows) != 2 || len(st.plain) != 2 {
			t.Fatalf("%s: %d failed, %d traced, %d untraced jobs", e.name, st.failed, len(st.rows), len(st.plain))
		}
		if st.phaseSumErrorMs > 1e-6 {
			t.Fatalf("%s: phase rows miss the job wall by %g ms", e.name, st.phaseSumErrorMs)
		}
		for _, k := range want[e.name] {
			if _, ok := st.rows[0][k]; !ok {
				t.Errorf("%s: no %s row", e.name, k)
			}
		}
	}
	if err := exportTrace(tr, "test", 3); err != nil {
		t.Fatal(err)
	}
}

func TestTimedPhaseBuildsNoProbe(t *testing.T) {
	in, err := prepare(small, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := probesBuilt.Load()
	for _, e := range engines(small) {
		st, err := timedPhase(e, in, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 0 || len(st.walls) != 2 {
			t.Fatalf("%s: %d of %d jobs failed", e.name, st.failed, len(st.walls))
		}
	}
	if n := probesBuilt.Load() - before; n != 0 {
		t.Fatalf("timed phases built %d probes", n)
	}
}

func TestServiceLoopGatesAndTracesJobs(t *testing.T) {
	for _, traced := range []bool{false, true} {
		svc, err := startService(small, 5, traced)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New("perfbench")
		st := svc.loop(0, 16, tr)
		svc.close()
		if st.failed != 0 || st.jobs < 16 {
			t.Fatalf("traced=%v: %d of %d jobs failed", traced, st.failed, st.jobs)
		}
		if !traced {
			continue
		}
		if len(st.rows) != st.jobs || st.phaseSumErrorMs > 1e-6 {
			t.Fatalf("%d rows for %d jobs; phase rows miss the engine wall by %g ms", len(st.rows), st.jobs, st.phaseSumErrorMs)
		}
		if len(tr.Spans()) == 0 {
			t.Fatal("no spans recorded for the first traced job")
		}
	}
}

func TestServiceGateCatchesWrongDigest(t *testing.T) {
	svc, err := startService(small, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	svc.refs[1] = strings.Repeat("x", len(svc.refs[1]))
	if o := svc.submitOne(0, "t"); !o.ok {
		t.Fatal("job with the reference digest failed the gate")
	}
	if o := svc.submitOne(1, "t"); o.ok {
		t.Fatal("job whose digest differs from the reference passed the gate")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestReferenceMatchesSuiteOnTeraSortDuplicates(t *testing.T) {
	// Skewed keys repeat, so the reference must order duplicate-key output
	// exactly as the engines' canonical Pairs do.
	job, splits, err := workload.TeraSort(map[string]int64{"records": 2000, "splits": 4, "reducers": 3, "seed": 7, "skew": 150})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceResult(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapred.Run(job, splits, 2)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalDigest(res) != canonicalDigest(ref) {
		t.Fatal("MPI-D output differs from the sequential reference")
	}
}

func TestBenchmarkFileListsEveryReportedMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		listed []bound
		units  map[string]string
	}{{"end_to_end", b.EndToEnd, endToEndUnits}, {"per_layer", b.PerLayer, layerUnits}} {
		seen := make(map[string]bool)
		for _, m := range c.listed {
			if seen[m.Name] {
				t.Errorf("%s lists %s twice", c.name, m.Name)
			}
			seen[m.Name] = true
			if unit, ok := c.units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s lists %s in %q; the benchmark reports it in %q", c.name, m.Name, m.Unit, unit)
			}
		}
		if len(seen) != len(c.units) {
			t.Errorf("%s lists %d metrics; the benchmark reports %d", c.name, len(seen), len(c.units))
		}
	}
}
