package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ict-repro/mpid/internal/hadooprpc"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/serve"
	"github.com/ict-repro/mpid/internal/trace"
)

// The service phase: the benchmark process hosts serve.Service behind its
// hadooprpc front-end and drives it with a closed loop of clients, each
// blocking in Wait before it submits its next job, over one multiplexed
// serve.DialService connection.
const (
	clients = 8
	tenants = 4
	// jobSeeds is how many distinct inputs the loop cycles through; each
	// has its reference digest computed at set-up.
	jobSeeds = 4
)

type service struct {
	svc    *serve.Service
	srv    *hadooprpc.Server
	client *serve.Client
	traced bool
	seeds  []int64
	refs   []string // serve.OutputDigest of each seed's reference result
	probes sync.Map // submission tag -> *probe (traced runs only)
}

// family is the registry name the loop submits: the workload's small job,
// built from the seed parameter. In a traced run the same name builds the
// job wrapped in a probe, filed under the tag parameter.
const family = "bench"

// startService boots the service for the workload's job family and computes
// the reference digest of every job input the loop will submit.
func startService(sp spec, seed int64, traced bool) (*service, error) {
	s := &service{traced: traced}
	for k := 0; k < jobSeeds; k++ {
		js := seed*jobSeeds + int64(k) + 1
		job, splits, err := sp.small(js)
		if err != nil {
			return nil, err
		}
		ref, err := referenceResult(job, splits)
		if err != nil {
			return nil, err
		}
		s.seeds = append(s.seeds, js)
		s.refs = append(s.refs, string(serve.OutputDigest(ref)))
	}
	wl := serve.NewWorkloads()
	if traced {
		wl.Register(family, func(params map[string]int64) (mapred.Job, []mapred.Split, error) {
			job, splits, err := sp.small(params["seed"])
			if err != nil {
				return job, nil, err
			}
			p := newProbe(job)
			s.probes.Store(params["tag"], p)
			job, splits = p.wrap(job, splits)
			return job, splits, nil
		}, "seed", "tag")
	} else {
		wl.Register(family, func(params map[string]int64) (mapred.Job, []mapred.Split, error) {
			return sp.small(params["seed"])
		}, "seed")
	}
	// The queue holds every outstanding job, so nothing is rejected; a
	// small retention bound keeps finished jobs' reports from piling up
	// over a run (each is looked up right after its Wait returns).
	s.svc = serve.New(serve.Config{Slots: 4, QueueDepth: 64, RetainJobs: 16, Cluster: serveCluster})
	s.srv = hadooprpc.NewServer()
	s.srv.Register(serve.NewProtocol(s.svc, wl))
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.client, err = serve.DialService(addr, hadooprpc.Options{CallTimeout: 2 * time.Minute})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) close() {
	if s.client != nil {
		s.client.Close()
	}
	if err := s.svc.Drain(time.Minute); err != nil {
		logf("service drain: %v", err)
	}
	s.srv.Close()
}

// serveStats is one service phase.
type serveStats struct {
	latencies       []float64 // ms, Submit to Wait return, every completed job
	jobs            int       // completed, failed ones included
	failed          int
	rejected        int
	elapsed         time.Duration
	use             usage
	rows            []map[string]float64 // traced twin only
	phaseSumErrorMs float64
}

// outcome is one submission as the client saw it.
type outcome struct {
	id            int64
	tag           int64
	submit, total time.Duration
	ok, rejected  bool
}

// submitOne submits job number n for tenant and waits for it, gating its
// digest against the reference.
func (s *service) submitOne(n int64, tenant string) outcome {
	k := n % jobSeeds
	params := map[string]int64{"seed": s.seeds[k]}
	if s.traced {
		params["tag"] = n
	}
	o := outcome{tag: n}
	t0 := time.Now()
	id, err := s.client.Submit(tenant, family, params)
	o.submit = time.Since(t0)
	if err != nil {
		logf("submit: %v", err)
		o.rejected = errors.Is(err, serve.ErrSaturated)
		o.total = time.Since(t0)
		return o
	}
	o.id = id
	rr, err := s.client.Wait(id)
	o.total = time.Since(t0)
	switch {
	case err != nil:
		logf("wait job %d: %v", id, err)
	case !rr.OK:
		logf("job %d failed: %s", id, rr.ErrMsg)
	case string(rr.Digest) != s.refs[k]:
		logf("job %d: output digest differs from the reference", id)
	default:
		o.ok = true
	}
	return o
}

// loop runs the closed loop until budget has passed and at least minJobs
// jobs have completed. On the traced twin every job's probe and engine
// report become per-layer rows, and the first job's spans go to tr.
func (s *service) loop(budget time.Duration, minJobs int, tr *trace.Tracer) serveStats {
	var (
		st        serveStats
		mu        sync.Mutex
		wg        sync.WaitGroup
		started   atomic.Int64
		completed atomic.Int64
	)
	rejected0 := s.svc.Stats().Rejected
	u0 := readUsage()
	t0 := time.Now()
	deadline := t0.Add(budget)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for time.Now().Before(deadline) || completed.Load() < int64(minJobs) {
				o := s.submitOne(started.Add(1), tenant)
				completed.Add(1)
				if o.rejected {
					time.Sleep(time.Millisecond)
				}
				var (
					rows map[string]float64
					p    *probe
					job  *serve.Job
				)
				if s.traced && o.ok {
					rows, p, job = s.rows(o)
				}
				mu.Lock()
				st.jobs++
				st.latencies = append(st.latencies, float64(o.total)/1e6)
				if !o.ok {
					st.failed++
				}
				if rows != nil {
					st.rows = append(st.rows, rows)
					sum := rows["serve.startup_ms"] + rows["serve.map_phase_ms"] + rows["serve.drain_ms"] + rows["serve.teardown_ms"]
					st.phaseSumErrorMs = max(st.phaseSumErrorMs, abs(sum-rows["serve.engine_ms"]))
					if len(st.rows) == 1 {
						root, _ := rootSpan(job)
						p.record(tr, "serve "+family, int64(root.Start.Sub(epoch)), int64(root.Finish.Sub(epoch)))
						tr.Add(job.Report.Spans...)
					}
				}
				mu.Unlock()
			}
		}(fmt.Sprintf("tenant%d", c%tenants))
	}
	wg.Wait()
	st.elapsed = time.Since(t0)
	st.use = readUsage().sub(u0)
	st.rejected = s.svc.Stats().Rejected - rejected0
	return st
}

// rootSpan is the engine's root job span in a finished job's report.
func rootSpan(j *serve.Job) (trace.Span, bool) {
	if j == nil || j.Report == nil {
		return trace.Span{}, false
	}
	for _, sp := range j.Report.Spans {
		if sp.Kind == trace.KindJob && sp.Parent == 0 {
			return sp, true
		}
	}
	return trace.Span{}, false
}

// rows is one traced service job's breakdown: client-side submit and
// latency, the engine's root span, and the probe's phase rows inside it.
func (s *service) rows(o outcome) (map[string]float64, *probe, *serve.Job) {
	v, ok := s.probes.LoadAndDelete(o.tag)
	if !ok {
		return nil, nil, nil
	}
	j, err := s.svc.Lookup(o.id)
	if err != nil {
		return nil, nil, nil
	}
	root, ok := rootSpan(j)
	if !ok {
		return nil, nil, nil
	}
	p := v.(*probe)
	start, end := int64(root.Start.Sub(epoch)), int64(root.Finish.Sub(epoch))
	startup, mapPhase, drain, teardown := p.phases(start, end)
	engineMs := ms(end - start)
	total := float64(o.total) / 1e6
	return map[string]float64{
		"serve.submit_ms":    float64(o.submit) / 1e6,
		"serve.engine_ms":    engineMs,
		"serve.queue_ms":     total - engineMs,
		"serve.startup_ms":   startup,
		"serve.map_phase_ms": mapPhase,
		"serve.drain_ms":     drain,
		"serve.teardown_ms":  teardown,
	}, p, j
}
