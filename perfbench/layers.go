package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ict-repro/mpid/internal/core"
	"github.com/ict-repro/mpid/internal/mapred"
	"github.com/ict-repro/mpid/internal/metrics"
	"github.com/ict-repro/mpid/internal/trace"
)

// This file is the traced side of the benchmark: wrappers around a job's
// public hooks (Split, Mapper, Reducer, Combiner) that time each call from
// outside the engine. Timed runs never build them; probesBuilt lets a run
// prove it.

// probesBuilt counts every probe constructed in this process.
var probesBuilt atomic.Int64

// epoch is the base of every probe timestamp, so probes of concurrent jobs
// share one monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// emitSampleMask picks one Map call in 16 whose emits are each timed; the
// sampled time is scaled by the exact emit count. Timing every emit would
// cost a clock-read pair per emit (about 1.1 M per wordcount job).
const emitSampleMask = 15

// shard holds per-call accumulators; calls pick a shard at random so that
// concurrent mappers and reducers rarely share a cache line.
type shard struct {
	mapNs, mapCalls, emits         atomic.Int64
	sampledEmits, sampledEmitNs    atomic.Int64
	reduceNs, reduceCalls          atomic.Int64
	combineNs, combineIn, combineO atomic.Int64
	lastMap, lastReduce            atomic.Int64
	_                              [64]byte
}

// probe records one job's layer boundaries and busy times.
type probe struct {
	shards    [8]shard
	partition core.PartitionFunc
	reducers  int

	firstRecords atomic.Int64 // 0 until the first Records call
	recordsNs    atomic.Int64
	recvNs       atomic.Int64
	// lastReduceEnd is each reducer's last Reduce return, for the gap a
	// reducer spends in its engine between groups.
	lastReduceEnd []atomic.Int64

	mu    sync.Mutex
	tasks []taskSpan // one per Records call
}

type taskSpan struct {
	split      int
	start, end int64
}

// newProbe builds the probe for a job with the given reducer count.
func newProbe(job mapred.Job) *probe {
	probesBuilt.Add(1)
	n := job.NumReducers
	if n <= 0 {
		n = 1
	}
	part := job.Partitioner
	if part == nil {
		part = core.HashPartitioner
	}
	return &probe{partition: part, reducers: n, lastReduceEnd: make([]atomic.Int64, n)}
}

func (p *probe) shard() *shard { return &p.shards[rand.Uint32()&7] }

func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// wrap returns the job and splits with every public hook timed by p.
func (p *probe) wrap(job mapred.Job, splits []mapred.Split) (mapred.Job, []mapred.Split) {
	job.Mapper = probeMapper{p, job.Mapper}
	job.Reducer = probeReducer{p, job.Reducer}
	if job.Combiner != nil {
		job.Combiner = p.combiner(job.Combiner)
	}
	if oc := job.ObservedCombiner; oc != nil {
		job.ObservedCombiner = func(reg *metrics.Registry) core.CombineFunc { return p.combiner(oc(reg)) }
	}
	out := make([]mapred.Split, len(splits))
	for i, s := range splits {
		out[i] = probeSplit{p, s}
	}
	return job, out
}

type probeSplit struct {
	p     *probe
	inner mapred.Split
}

func (s probeSplit) ID() int { return s.inner.ID() }

func (s probeSplit) Records(yield func(key, value []byte) error) error {
	start := now()
	for {
		old := s.p.firstRecords.Load()
		if (old != 0 && old <= start) || s.p.firstRecords.CompareAndSwap(old, start) {
			break
		}
	}
	err := s.inner.Records(yield)
	end := now()
	s.p.recordsNs.Add(end - start)
	s.p.mu.Lock()
	s.p.tasks = append(s.p.tasks, taskSpan{s.inner.ID(), start, end})
	s.p.mu.Unlock()
	return err
}

type probeMapper struct {
	p     *probe
	inner mapred.Mapper
}

func (m probeMapper) Map(key, value []byte, emit mapred.Emit) error {
	sh := m.p.shard()
	start := now()
	var emits, sampledNs int64
	sampled := rand.Uint32()&emitSampleMask == 0
	var err error
	if sampled {
		err = m.inner.Map(key, value, func(k, v []byte) error {
			emits++
			t := now()
			err := emit(k, v)
			sampledNs += now() - t
			return err
		})
	} else {
		err = m.inner.Map(key, value, func(k, v []byte) error {
			emits++
			return emit(k, v)
		})
	}
	end := now()
	sh.mapNs.Add(end - start)
	sh.mapCalls.Add(1)
	sh.emits.Add(emits)
	if sampled {
		sh.sampledEmits.Add(emits)
		sh.sampledEmitNs.Add(sampledNs)
	}
	atomicMax(&sh.lastMap, end)
	return err
}

type probeReducer struct {
	p     *probe
	inner mapred.Reducer
}

func (r probeReducer) Reduce(key []byte, values [][]byte, emit mapred.Emit) error {
	sh := r.p.shard()
	start := now()
	last := &r.p.lastReduceEnd[r.p.partition(key, r.p.reducers)]
	if prev := last.Load(); prev != 0 {
		r.p.recvNs.Add(start - prev)
	}
	err := r.inner.Reduce(key, values, emit)
	end := now()
	last.Store(end)
	sh.reduceNs.Add(end - start)
	sh.reduceCalls.Add(1)
	atomicMax(&sh.lastReduce, end)
	return err
}

func (p *probe) combiner(inner core.CombineFunc) core.CombineFunc {
	return func(key []byte, values [][]byte) [][]byte {
		sh := p.shard()
		start := now()
		out := inner(key, values)
		sh.combineNs.Add(now() - start)
		sh.combineIn.Add(int64(len(values)))
		sh.combineO.Add(int64(len(out)))
		return out
	}
}

// totals sums the shards.
type totals struct {
	mapNs, mapCalls, emits, sampledEmits, sampledEmitNs int64
	reduceNs, reduceCalls                               int64
	combineNs, combineIn, combineOut                    int64
	lastMap, lastReduce                                 int64
}

func (p *probe) totals() totals {
	var t totals
	for i := range p.shards {
		s := &p.shards[i]
		t.mapNs += s.mapNs.Load()
		t.mapCalls += s.mapCalls.Load()
		t.emits += s.emits.Load()
		t.sampledEmits += s.sampledEmits.Load()
		t.sampledEmitNs += s.sampledEmitNs.Load()
		t.reduceNs += s.reduceNs.Load()
		t.reduceCalls += s.reduceCalls.Load()
		t.combineNs += s.combineNs.Load()
		t.combineIn += s.combineIn.Load()
		t.combineOut += s.combineO.Load()
		t.lastMap = max(t.lastMap, s.lastMap.Load())
		t.lastReduce = max(t.lastReduce, s.lastReduce.Load())
	}
	return t
}

// emitNs estimates the time spent inside emit from the sampled Map calls.
func (t totals) emitNs() float64 {
	if t.sampledEmits == 0 {
		return 0
	}
	return float64(t.sampledEmitNs) * float64(t.emits) / float64(t.sampledEmits)
}

// bounds places the phase boundaries inside [start, end]: the first Records
// call, the last Map return and the last Reduce return, each clamped into
// order.
func (p *probe) bounds(start, end int64) (firstRecords, lastMap, lastReduce int64) {
	t := p.totals()
	firstRecords = start
	if f := p.firstRecords.Load(); f != 0 {
		firstRecords = clamp(f, start, end)
	}
	lastMap = clamp(t.lastMap, firstRecords, end)
	lastReduce = clamp(t.lastReduce, lastMap, end)
	return firstRecords, lastMap, lastReduce
}

// phases splits [start, end] at the bounds into the four phase rows, which
// are non-negative and sum exactly to end - start.
func (p *probe) phases(start, end int64) (startup, mapPhase, drain, teardown float64) {
	b1, b2, b3 := p.bounds(start, end)
	return ms(b1 - start), ms(b2 - b1), ms(b3 - b2), ms(end - b3)
}

func clamp(v, lo, hi int64) int64 { return min(max(v, lo), hi) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// record appends the probe's spans for one job to tr: a root job span, its
// four phase spans and one task span per Records call.
func (p *probe) record(tr *trace.Tracer, name string, start, end int64) {
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	// The root is opened for its ids only; it is added with the job's own
	// start and finish rather than ended at the current time.
	root := *tr.StartRoot(name, trace.KindJob)
	root.Start, root.Finish = at(start), at(end)
	ctx := root.Context()
	b1, b2, b3 := p.bounds(start, end)
	tr.Add(root)
	for _, ph := range []struct {
		name   string
		lo, hi int64
	}{{"startup", start, b1}, {"map_phase", b1, b2}, {"drain", b2, b3}, {"teardown", b3, end}} {
		tr.Record(ctx, ph.name, trace.KindPhase, at(ph.lo), at(ph.hi))
	}
	p.mu.Lock()
	for _, ts := range p.tasks {
		tr.Record(ctx, fmt.Sprintf("split %d", ts.split), trace.KindTask, at(ts.start), at(ts.end))
	}
	p.mu.Unlock()
}
