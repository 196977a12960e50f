package main

import (
	"fmt"
	"time"

	"github.com/ict-repro/mpid/internal/hadoop"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/trace"
)

// engine runs one job on one of the two engines through its public entry
// point. rows turns a traced job's probe and outputs into per-layer rows.
type engine struct {
	name string
	run  func(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error)
	rows func(p *probe, start, end int64, res *mapred.Result, rep *hadoop.JobReport) map[string]float64
}

func engines(sp spec) []engine {
	mapSlots := sp.cluster.MapSlots
	if mapSlots <= 0 {
		mapSlots = 2 // the engine's default
	}
	slots := float64(sp.cluster.NumTrackers * mapSlots)
	return []engine{
		{
			name: "mpid",
			run: func(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error) {
				res, err := sp.runMPID(job, splits)
				return res, nil, err
			},
			rows: mpidRows,
		},
		{
			name: "hadoop",
			run: func(job mapred.Job, splits []mapred.Split) (*mapred.Result, *hadoop.JobReport, error) {
				return hadoop.RunWithReport(job, splits, sp.cluster)
			},
			rows: func(p *probe, start, end int64, res *mapred.Result, rep *hadoop.JobReport) map[string]float64 {
				return hadoopRows(p, start, end, rep, slots)
			},
		},
	}
}

// input is one workload's batch job, generated from the seed, with the
// reference output digest every run of it is gated against.
type input struct {
	job    mapred.Job
	splits []mapred.Split
	digest string // input records
	gate   *gate
}

func prepare(sp spec, seed int64) (*input, error) {
	job, splits, err := sp.build(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: build input: %w", sp.name, err)
	}
	digest, err := inputDigest(splits)
	if err != nil {
		return nil, err
	}
	ref, err := referenceResult(job, splits)
	if err != nil {
		return nil, err
	}
	return &input{job: job, splits: splits, digest: digest, gate: &gate{want: canonicalDigest(ref)}}, nil
}

// batchStats is one engine phase of a timed run.
type batchStats struct {
	walls  []float64 // ms per job
	use    usage     // summed over the entry-point calls
	failed int
	peakMB float64
}

// timedPhase runs the engine on the input until budget has passed and at
// least minJobs jobs have run, gating every output. CPU time and allocation
// are read around each entry-point call only, so the gate's own work is
// not charged to the engine.
func timedPhase(e engine, in *input, budget time.Duration, minJobs int) (batchStats, error) {
	var st batchStats
	if err := resetPeak(); err != nil {
		return st, err
	}
	deadline := time.Now().Add(budget)
	for len(st.walls) < minJobs || time.Now().Before(deadline) {
		u0 := readUsage()
		t0 := time.Now()
		res, _, err := e.run(in.job, in.splits)
		wall := time.Since(t0)
		st.use = st.use.add(readUsage().sub(u0))
		st.walls = append(st.walls, float64(wall)/1e6)
		if err != nil {
			logf("%s job failed: %v", e.name, err)
			res = nil
		}
		if !in.gate.check(res) {
			st.failed++
		}
	}
	peak, err := peakRSSMB()
	st.peakMB = peak
	return st, err
}

// tracedStats is one engine phase of a traced run.
type tracedStats struct {
	rows            []map[string]float64
	plain, traced   []float64 // job walls in ms, untraced and traced
	jobs, failed    int
	phaseSumErrorMs float64 // largest |Σ phase rows − job wall| seen
}

// tracedPhase alternates untraced and traced jobs until budget has passed
// and at least minTraced traced jobs have run. The first traced job's
// spans, the probe's and the engine's own, go to tr.
func tracedPhase(e engine, in *input, budget time.Duration, minTraced int, tr *trace.Tracer) tracedStats {
	var st tracedStats
	deadline := time.Now().Add(budget)
	for i := 0; len(st.rows) < minTraced || time.Now().Before(deadline); i++ {
		job, splits := in.job, in.splits
		var p *probe
		if i%2 == 1 {
			p = newProbe(job)
			job, splits = p.wrap(job, splits)
		}
		start := now()
		res, rep, err := e.run(job, splits)
		end := now()
		st.jobs++
		if err != nil {
			logf("%s job failed: %v", e.name, err)
			res = nil
		}
		if !in.gate.check(res) {
			st.failed++
			continue
		}
		if p == nil {
			st.plain = append(st.plain, ms(end-start))
			continue
		}
		st.traced = append(st.traced, ms(end-start))
		rows := e.rows(p, start, end, res, rep)
		prefix := map[string]string{"mpid": "mapred", "hadoop": "hadoop"}[e.name]
		sum := rows[prefix+".startup_ms"] + rows[prefix+".map_phase_ms"] + rows[prefix+".drain_ms"] + rows[prefix+".teardown_ms"]
		st.phaseSumErrorMs = max(st.phaseSumErrorMs, abs(sum-rows[prefix+".job_ms"]))
		st.rows = append(st.rows, rows)
		if len(st.rows) == 1 {
			p.record(tr, e.name+" "+in.job.Name, start, end)
			if rep != nil {
				tr.Add(rep.Spans...)
			}
		}
	}
	return st
}

func abs(v float64) float64 { return max(v, -v) }

// mpidRows is one traced MPI-D job's layer breakdown. The emit boundary is
// where mapred hands a pair to core.D.Send, so send time includes the
// combiner calls that run inside Send.
func mpidRows(p *probe, start, end int64, res *mapred.Result, _ *hadoop.JobReport) map[string]float64 {
	t := p.totals()
	startup, mapPhase, drain, teardown := p.phases(start, end)
	c := res.MapCounters
	perMsg := 0.0
	if c.MessagesSent > 0 {
		perMsg = float64(c.BytesSent) / float64(c.MessagesSent)
	}
	return map[string]float64{
		"mapred.job_ms":           ms(end - start),
		"mapred.startup_ms":       startup,
		"mapred.map_phase_ms":     mapPhase,
		"mapred.drain_ms":         drain,
		"mapred.teardown_ms":      teardown,
		"mapred.input_ms":         ms(p.recordsNs.Load() - t.mapNs),
		"mapred.map_ms":           (float64(t.mapNs) - t.emitNs()) / 1e6,
		"core.send_ms":            t.emitNs() / 1e6,
		"core.combine_ms":         ms(t.combineNs),
		"core.recv_ms":            ms(p.recvNs.Load()),
		"mapred.reduce_ms":        ms(t.reduceNs),
		"core.send_calls":         float64(t.emits),
		"core.combine_values_in":  float64(t.combineIn),
		"core.combine_values_out": float64(t.combineOut),
		"core.recv_groups":        float64(t.reduceCalls),
		"core.pairs_sent":         float64(c.PairsSent),
		"core.pairs_combined":     float64(c.PairsCombined),
		"core.spills":             float64(c.Spills),
		"core.messages_sent":      float64(c.MessagesSent),
		"core.bytes_sent":         float64(c.BytesSent),
		"mpi.bytes_per_message":   perMsg,
	}
}

// hadoopRows is one traced Hadoop job's layer breakdown: the probe's phase
// rows and user-code busy times, the JobReport's per-task phase sums (the
// live Table I), and the job's metrics snapshot.
func hadoopRows(p *probe, start, end int64, rep *hadoop.JobReport, slots float64) map[string]float64 {
	t := p.totals()
	startup, mapPhase, drain, teardown := p.phases(start, end)
	var run, spill, cp, srt, red, merge time.Duration
	for _, m := range rep.Maps {
		run += m.Run
		spill += m.Spill
	}
	for _, r := range rep.Reduces {
		cp += r.Copy
		srt += r.Sort
		red += r.Reduce
		merge += r.Merge
	}
	snap := rep.Metrics
	dms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	ratio := 0.0
	if l := snap.Counter("hadoop.map_launches"); l > 0 {
		ratio = float64(len(rep.Maps)) / float64(l)
	}
	return map[string]float64{
		"hadoop.job_ms":             ms(end - start),
		"hadoop.startup_ms":         startup,
		"hadoop.map_phase_ms":       mapPhase,
		"hadoop.drain_ms":           drain,
		"hadoop.teardown_ms":        teardown,
		"hadoop.map_run_ms":         dms(run),
		"hadoop.map_spill_ms":       dms(spill),
		"hadoop.reduce_copy_ms":     dms(cp),
		"hadoop.reduce_sort_ms":     dms(srt),
		"hadoop.reduce_reduce_ms":   dms(red),
		"hadoop.reduce_merge_ms":    dms(merge),
		"hadoop.copy_share_pct":     rep.CopyShareOfTotal(),
		"hadoop.user_map_ms":        (float64(t.mapNs) - t.emitNs()) / 1e6,
		"hadoop.collect_ms":         t.emitNs() / 1e6,
		"hadoop.user_reduce_ms":     ms(t.reduceNs),
		"hadoop.combine_ms":         ms(t.combineNs),
		"hadoop.sched_wait_ms":      mapPhase - dms(run+spill)/slots,
		"hadoop.task_success_ratio": ratio,
		"hadooprpc.calls":           float64(snap.Counter("rpc.calls")),
		"hadooprpc.call_ms_p50":     snap.Timers["rpc.latency"].P50 * 1e3,
		"hadooprpc.bytes":           float64(snap.Counter("rpc.bytes_sent") + snap.Counter("rpc.bytes_recv")),
		"jetty.fetches":             float64(snap.Counter("shuffle.fetches")),
		"jetty.fetch_bytes":         float64(snap.Counter("shuffle.fetch_bytes")),
		"jetty.fetch_ms_p50":        snap.Timers["shuffle.fetch_latency"].P50 * 1e3,
		"jetty.fetch_retries":       float64(snap.Counter("shuffle.fetch_retries")),
		"shuffle.merge_passes":      float64(snap.Counter("shuffle.merge_passes")),
	}
}

// meanRows averages per-job rows. Means, unlike medians, keep the phase rows
// summing to the job wall.
func meanRows(rows []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range rows {
		for k, v := range r {
			out[k] += v / float64(len(rows))
		}
	}
	return out
}
