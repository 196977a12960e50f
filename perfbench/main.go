// Command perfbench is the repository's benchmark: one workload per process,
// its input generated from a seed, timed on the MPI-D engine (mapred), the
// mini-Hadoop engine (hadoop) and the job service (serve) in sequence, with
// every job's output gated against a reference digest computed at set-up.
//
//	perfbench --workload wordcount --seed 1 --seconds 20 --trace 0
//
// prints progress on standard error and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics of untraced jobs; --trace 1 runs
// the same phases with the jobs' hooks wrapped and reports the per-layer
// rows instead. --steady K and --compare report run-to-run spread (see
// steady.go). README.md lists every metric and why it is kept.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/ict-repro/mpid/internal/trace"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: wordcount, terasort or serve")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Float64("seconds", 25, "measuring window in seconds")
		traced  = flag.Int("trace", 0, "1 reports per-layer rows from wrapped jobs; 0 end-to-end metrics")
		steady  = flag.Int("steady", 0, "run the workload this many times, one seed each, and report spread")
		out     = flag.String("out", "", "with --steady, also save the runs to this JSON file")
		compare = flag.String("compare", "", "compare two saved --steady files: a.json,b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare != "":
		err = compareSets(os.Stdout, strings.Split(*compare, ","))
	case *steady > 0:
		err = steadyReport(os.Stdout, *wl, *seed, *seconds, *traced, *steady, *out)
	default:
		sp, ok := specs[*wl]
		if !ok {
			err = fmt.Errorf("unknown workload %q (want wordcount, terasort or serve)", *wl)
			break
		}
		var res result
		res, err = runWorkload(sp, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
		if err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// runWorkload sets the workload up, runs its three phases and reports.
func runWorkload(sp spec, seed int64, window time.Duration, traced bool) (result, error) {
	res := result{Correct: true}
	in, svc, setups, err := setUp(sp, seed, traced, &res)
	if err != nil {
		return res, err
	}
	defer svc.close()
	logf("%s seed %d: input digest %s, reference output %s", sp.name, seed, in.digest, in.gate.want[:16])
	budget := func(i int) time.Duration { return time.Duration(sp.share[i] * float64(window)) }
	var values map[string]float64
	units := endToEndUnits
	if traced {
		values, units = tracedRun(sp, seed, in, svc, budget, &res), layerUnits
	} else {
		if values, err = timedRun(sp, in, svc, budget, &res); err != nil {
			return res, err
		}
		values["setup_s"] = median(setups)
		if n := probesBuilt.Load(); n != 0 {
			logf("timed run built %d probes", n)
			res.Correct = false
		}
	}
	if res.Metrics, err = withUnits(values, units); err != nil {
		logf("%v", err)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// setUp generates the input and its reference, boots the service and runs
// a fixed warm-up, setupReps times; it returns the last set-up and the
// duration of each, the first counted from process start. A warm-up job
// whose output differs from the reference makes the run incorrect.
func setUp(sp spec, seed int64, traced bool, res *result) (*input, *service, []float64, error) {
	var (
		in     *input
		svc    *service
		setups []float64
	)
	start := epoch
	for rep := 0; rep < setupReps; rep++ {
		if svc != nil {
			svc.close()
		}
		var err error
		if in, err = prepare(sp, seed); err != nil {
			return nil, nil, nil, err
		}
		if svc, err = startService(sp, seed, traced); err != nil {
			return nil, nil, nil, err
		}
		for _, e := range engines(sp) {
			out, _, err := e.run(in.job, in.splits)
			if err != nil || !in.gate.check(out) {
				logf("set-up: %s output differs from the reference (err %v)", e.name, err)
				res.Correct = false
			}
		}
		for n := int64(0); n < jobSeeds; n++ {
			if o := svc.submitOne(n, "warmup"); !o.ok {
				logf("set-up: service job %d output differs from the reference", n)
				res.Correct = false
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		start = time.Now()
	}
	in.gate.failed = 0
	return in, svc, setups, nil
}

// rounds is how many times a timed run alternates its two engine phases.
// Spreading each engine over the whole stretch, rather than giving it one
// half of it, keeps a slow spell of a shared machine from landing on one
// engine alone. The service phase runs last, in one stretch, so that the
// memory the service accumulates under load does not raise the engines'
// resident high-water marks.
const rounds = 4

// minJobs is the least a timed run completes in each phase: MPI-D, Hadoop
// and service jobs. The service minimum puts ten samples beyond the p99.
var minJobs = [3]int{10, 5, 1000}

// timedRun measures the end-to-end metrics on untraced jobs.
func timedRun(sp spec, in *input, svc *service, budget func(int) time.Duration, res *result) (map[string]float64, error) {
	values := make(map[string]float64)
	engs := engines(sp)
	var batch [2]batchStats
	for r := 1; r <= rounds; r++ {
		for i, e := range engs {
			// The last round runs each engine on until its minimum is met.
			need := 0
			if r == rounds {
				need = max(minJobs[i]-len(batch[i].walls), 0)
			}
			st, err := timedPhase(e, in, budget(i)/rounds, need)
			if err != nil {
				return nil, err
			}
			batch[i].walls = append(batch[i].walls, st.walls...)
			batch[i].use = batch[i].use.add(st.use)
			batch[i].failed += st.failed
			batch[i].peakMB = max(batch[i].peakMB, st.peakMB)
		}
	}
	for i, e := range engs {
		st := batch[i]
		jobs := float64(len(st.walls))
		res.Attempted += len(st.walls)
		res.Failed += st.failed
		values[e.name+"_job_ms_p50"] = median(st.walls)
		values[e.name+"_cpu_ms_per_job"] = st.use.cpu.Seconds() * 1e3 / jobs
		values[e.name+"_alloc_mb_per_job"] = float64(st.use.alloc) / 1e6 / jobs
		values[e.name+"_peak_rss_mb"] = st.peakMB
		logf("%s: %d jobs, p50 %.2f ms", e.name, len(st.walls), median(st.walls))
	}
	loop := svc.loop(budget(2), minJobs[2], nil)
	res.Attempted += loop.jobs
	res.Failed += loop.failed
	lat := sorted(loop.latencies)
	values["serve_jobs_per_s"] = float64(loop.jobs) / loop.elapsed.Seconds()
	values["serve_latency_ms_p50"] = quantile(lat, 0.5)
	values["serve_latency_ms_p99"] = quantile(lat, 0.99)
	values["serve_cpu_ms_per_job"] = loop.use.cpu.Seconds() * 1e3 / float64(loop.jobs)
	logf("serve: %d jobs in %.1f s, %d rejected", loop.jobs, loop.elapsed.Seconds(), loop.rejected)
	return values, nil
}

// tracedRun measures the per-layer rows on wrapped jobs, checks that each
// engine's phase rows sum to its job wall, and exports the spans.
func tracedRun(sp spec, seed int64, in *input, svc *service, budget func(int) time.Duration, res *result) map[string]float64 {
	tr := trace.New("perfbench")
	values := make(map[string]float64)
	for i, e := range engines(sp) {
		st := tracedPhase(e, in, budget(i), 3, tr)
		res.Attempted += st.jobs
		res.Failed += st.failed
		for k, v := range meanRows(st.rows) {
			values[k] = v
		}
		if len(st.plain) > 0 && len(st.traced) > 0 {
			values["trace.overhead_pct."+e.name] = 100 * (median(st.traced)/median(st.plain) - 1)
		}
		if st.phaseSumErrorMs > 1e-6 {
			logf("%s: phase rows miss the job wall by %g ms", e.name, st.phaseSumErrorMs)
			res.Correct = false
		}
		logf("%s: %d traced and %d untraced jobs", e.name, len(st.traced), len(st.plain))
	}
	st := svc.loop(budget(2), 100, tr)
	res.Attempted += st.jobs
	res.Failed += st.failed
	for k, v := range meanRows(st.rows) {
		values[k] = v
	}
	for _, k := range []string{"serve.submit_ms", "serve.engine_ms", "serve.queue_ms"} {
		var vs []float64
		for _, r := range st.rows {
			vs = append(vs, r[k])
		}
		values[k+"_p50"] = median(vs)
	}
	// Only the engine time keeps its mean, which the phase rows sum to.
	delete(values, "serve.submit_ms")
	delete(values, "serve.queue_ms")
	values["serve.rejected"] = float64(st.rejected)
	if st.phaseSumErrorMs > 1e-6 {
		logf("serve: phase rows miss the engine wall by %g ms", st.phaseSumErrorMs)
		res.Correct = false
	}
	logf("serve: %d traced jobs", len(st.rows))
	if err := exportTrace(tr, sp.name, seed); err != nil {
		logf("%v", err)
		res.Correct = false
	}
	return values
}

// buildDir is where the benchmark keeps what it writes.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// exportTrace writes the traced run's spans as a Chrome trace and checks
// that the file validates.
func exportTrace(tr *trace.Tracer, workload string, seed int64) error {
	data, err := trace.ChromeTrace(tr.Spans())
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	st, err := trace.ValidateChrome(data)
	if err != nil {
		return fmt.Errorf("chrome trace does not validate: %w", err)
	}
	dir := filepath.Join(buildDir(), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	logf("chrome trace %s: %d spans in %d lanes", path, st.Spans, st.Procs)
	return nil
}
