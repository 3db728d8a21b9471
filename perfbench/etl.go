package main

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// etlConfig shapes one closed-loop ETL workload: one client runs cold
// restaurant jobs back to back, each with a fresh ExecLayer, Registry and
// Budget.
type etlConfig struct {
	// base records per job, match of them kept by the cuisine filter.
	base, match, train int
	dupFrac            float64
	batch              int
	// latency is the fixed per-call upstream delay; 0 is the bare sim.
	latency time.Duration
	// faults, healed by resilience, are injected below the probe.
	faults     llm.FaultPlan
	resilience *resil.Policy
	// pool is how many distinct seeded tables the jobs cycle through.
	// Every job starts cold, so a repeated table shares nothing with its
	// earlier run; the pool bounds the untimed reference runs.
	pool int
}

// etlCold is CPU-bound: the zero-latency sim, the wrapper stack, the
// executor's per-record overhead, embedding and the batcher's idle linger
// decide the wall clock.
var etlCold = etlConfig{base: 100, match: 25, train: 60, dupFrac: 0.3, batch: 8, pool: 48}

// etlRemote is bound by dependent upstream round trips: a fixed delay an
// order of magnitude above the batcher's 2 ms linger, and seeded
// transient and wrong-section faults that retries and solo retries heal
// (see faultRouter).
var etlRemote = etlConfig{
	base: 12, match: 4, train: 30, dupFrac: 0.3, batch: 8, pool: 256,
	latency: 10 * time.Millisecond,
	faults:  llm.FaultPlan{Transient: 0.05, WrongSection: 0.05},
	resilience: &resil.Policy{MaxAttempts: 8, BaseBackoff: time.Millisecond,
		MaxBackoff: 4 * time.Millisecond},
}

// serverProbeJobs is how many of its jobs an ETL workload's traced run
// also serves through the HTTP server.
const serverProbeJobs = 6

// setupBatch is how many set-ups one batch of the set-up measurement
// times.
const setupBatch = 200

// serveCounter is a workflow.ServeObserver counting the asks an
// ExecLayer served.
type serveCounter struct{ served atomic.Int64 }

func (c *serveCounter) ObserveServe(context.Context, bool) { c.served.Add(1) }

// etlJob is one timed job's outcome.
type etlJob struct {
	input   int
	latency time.Duration
	lag     time.Duration
	res     *pipeline.Result
	err     error
	exec    workflow.ExecStats
	served  int64
	builds  int
	reuses  int
}

// reference is a job's output from its reference run.
type reference struct {
	tables  map[string][]dataset.Record
	scalars map[string]string
}

func runETL(cfg etlConfig, o options) (*result, error) {
	r := newResult()

	// Set-up: simulator construction plus Optimize and Compile. It takes
	// microseconds, so it is repeated in batches spread over the run,
	// after the heap has grown, and the median of all reported.
	var setups []float64
	setup := func() error {
		for i := 0; i < setupBatch; i++ {
			start := time.Now()
			_ = newSim()
			spec, _, err := pipeline.Optimize(restaurantSpec())
			if err != nil {
				return fmt.Errorf("optimize: %w", err)
			}
			if _, err = pipeline.Compile(spec); err != nil {
				return fmt.Errorf("compile: %w", err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		return nil
	}
	spec, _, err := pipeline.Optimize(restaurantSpec())
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	pl, err := pipeline.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	upstream := newSim()
	// remote is the upstream a job talks to: the sim behind the workload's
	// latency and faults.
	remote := func(faultSeed int64) llm.Model {
		var m llm.Model = upstream
		if cfg.latency > 0 {
			m = llm.WithLatency(m, cfg.latency)
		}
		if !cfg.faults.Zero() {
			m = newFaultRouter(m, cfg.faults, faultSeed)
		}
		return m
	}

	// Inputs and their references, outside the timed region.
	inputs := make([]jobInput, cfg.pool)
	refs := make([]reference, cfg.pool)
	tp := newTape()
	for i := range inputs {
		inputs[i] = restaurantJob(fmt.Sprintf("j%d-", i), cfg.base, cfg.match, cfg.train, cfg.dupFrac, o.seed*1000+int64(i))
		res, err := pl.Run(context.Background(), pipeline.ExecConfig{
			Model: tp.recording(upstream), Parallelism: 1}, inputs[i].tables)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		refs[i] = reference{res.Tables, res.Scalars}
	}

	runJob := func(n int, rec *recorder, lagFrom time.Time) etlJob {
		in := n % cfg.pool
		m := remote(o.seed*1_000_003 + int64(n))
		layer, registry := workflow.NewExecLayer(), embed.NewRegistry()
		counter := &serveCounter{}
		layer.SetServeObserver(counter)
		ec := pipeline.ExecConfig{
			Exec: layer, Registry: registry, Budget: workflow.Unlimited(),
			Batch: cfg.batch, Resilience: cfg.resilience,
		}
		if rec != nil {
			m = &probeModel{inner: m, rec: rec}
			ec.Embedder = &timingEmbedder{inner: embed.Default(), rec: rec}
			rec.currentJob.Store(int64(n + 1))
		}
		ec.Model = m
		ctx := withJob(context.Background(), int64(n+1))
		start := time.Now()
		var t0 int64
		if rec != nil {
			t0 = rec.now()
		}
		res, err := pl.Run(ctx, ec, inputs[in].tables)
		j := etlJob{input: in, latency: time.Since(start), lag: start.Sub(lagFrom), res: res, err: err}
		if rec != nil {
			rec.add(span{kind: spanJob, job: int64(n + 1), start: t0, end: rec.now()})
		}
		j.exec = layer.Stats()
		j.served = counter.served.Load()
		j.builds, j.reuses = registry.Stats()
		return j
	}

	// loop runs jobs back to back for d; each job is due the moment the
	// previous one returned.
	loop := func(first int, d time.Duration, rec *recorder) (jobs []etlJob, wall time.Duration) {
		start := time.Now()
		prev := start
		for n := first; time.Since(start) < d; n++ {
			j := runJob(n, rec, prev)
			prev = start.Add(time.Since(start))
			jobs = append(jobs, j)
		}
		return jobs, time.Since(start)
	}

	if err := setup(); err != nil {
		return nil, err
	}
	// Warm-up: heap growth and lazy package state, not measured.
	for n := 0; n < 2; n++ {
		if j := runJob(n, nil, time.Now()); j.err != nil {
			return nil, fmt.Errorf("warm-up job: %w", j.err)
		}
	}
	if err := setup(); err != nil {
		return nil, err
	}

	total := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		a := sampleProc()
		jobs, wall := loop(2, total, nil)
		b := sampleProc()
		if err := setup(); err != nil {
			return nil, err
		}
		r.set("setup_s", median(setups))
		ok := checkETL(r, jobs, inputs, refs)
		lat := make([]float64, 0, len(jobs))
		var records, calls int
		var cost float64
		for _, j := range jobs {
			lat = append(lat, ms(j.latency))
			if j.res != nil {
				calls += j.res.Usage.Calls
				cost += j.res.Cost
			}
		}
		for i, j := range jobs {
			if ok[i] {
				records += inputs[j.input].records
			}
		}
		n := float64(len(jobs))
		r.set("job_p50_ms", median(lat))
		r.note("p50 sample: %d jobs", len(lat))
		r.set("records_per_s", float64(records)/wall.Seconds())
		r.set("sustained_jobs_per_s", float64(r.attempted-r.failed)/wall.Seconds())
		r.set("upstream_calls_per_job", float64(calls)/n)
		r.set("cost_usd_per_job", cost/n)
		r.set("cpu_ms_per_job", ms(b.cpu-a.cpu)/n)
		r.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	// Traced run: an untraced third for the overhead baseline, then the
	// traced phase the per-layer metrics come from.
	plain, _ := loop(2, total/3, nil)
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(jobOf)
	stopSampler := goroutineSampler()
	a := sampleProc()
	jobs, _ := loop(2+len(plain), total-total/3, rec)
	b := sampleProc()
	setProc(r, a, b, len(jobs), stopSampler())
	checkETL(r, append(plain, jobs...), inputs, refs)
	writeTrace(rec, dir, o)
	setETLLayers(r, rec, plain, jobs)
	if _, err := setReplay(r, pl, tp, upstream, inputs[0], refs[0], pipeline.ExecConfig{Batch: cfg.batch}); err != nil {
		return nil, err
	}
	setLedger(r, tp)
	if err := setCompile(r); err != nil {
		return nil, err
	}
	if err := setCacheLog(r, pl, upstream, inputs[0], dir); err != nil {
		return nil, err
	}
	if err := setServerProbe(r, remote(o.seed), cfg, inputs[:serverProbeJobs], dir); err != nil {
		return nil, err
	}
	return r, nil
}

// checkETL is the correctness gate: every job's tables and scalars must
// equal its input's reference run (unbatched, Parallelism 1, fresh
// layer). It sets attempted, failed, completed_share, failed_share and
// answer_accuracy, and returns which jobs passed.
func checkETL(r *result, jobs []etlJob, inputs []jobInput, refs []reference) []bool {
	ok := make([]bool, len(jobs))
	sc := newScorer()
	for i, j := range jobs {
		r.attempted++
		switch {
		case j.err != nil:
			r.failed++
			r.note("job %d failed: %v", i, j.err)
		case !reflect.DeepEqual(j.res.Tables, refs[j.input].tables) || !reflect.DeepEqual(j.res.Scalars, refs[j.input].scalars):
			r.failed++
			r.fail("job %d output differs from its reference run", i)
		default:
			ok[i] = true
			sc.add(j.res.Tables, inputs[j.input].gold)
		}
	}
	setShares(r)
	sc.set(r)
	return ok
}

// setShares sets completed_share and failed_share from the run's counts;
// any failed job makes the run incorrect.
func setShares(r *result) {
	if r.failed > 0 {
		r.correct = false
	}
	r.set("completed_share", float64(r.attempted-r.failed)/float64(r.attempted))
	r.set("failed_share", float64(r.failed)/float64(r.attempted))
}

// setETLLayers derives the per-layer metrics of a traced ETL phase from
// its spans, boundary counters and the exported per-job counters.
func setETLLayers(r *result, rec *recorder, plain, jobs []etlJob) {
	n := float64(len(jobs))
	var logical, retries, hits, served, coalesced, envelopes, solo, builds, reuses int
	var wallSum float64
	var results []*pipeline.Result
	var lags, lat []float64
	for _, j := range jobs {
		lags = append(lags, ms(j.lag))
		lat = append(lat, ms(j.latency))
		wallSum += ms(j.latency)
		hits += j.exec.CacheHits
		served += int(j.served)
		coalesced += j.exec.Coalesced
		envelopes += j.exec.Batches
		solo += j.exec.SoloRetries
		builds += j.builds
		reuses += j.reuses
		if j.res == nil {
			continue
		}
		logical += j.res.Usage.Calls
		retries += j.res.Resilience.Retries
		results = append(results, j.res)
	}
	var plainSum float64
	for _, j := range plain {
		plainSum += ms(j.latency)
	}
	if len(plain) > 0 && len(jobs) > 0 {
		r.set("bench.trace_overhead_share", (wallSum/n)/(plainSum/float64(len(plain)))-1)
	}
	r.set("bench.lag_p95_ms", quantile(lags, 0.95))
	setP95(r, lat)
	setBoundary(r, rec, n, logical)
	r.set("resil.retries_per_job", float64(retries)/n)
	if served > 0 {
		r.set("workflow.cache_hit_ratio", float64(hits)/float64(served))
	}
	r.set("workflow.coalesced_per_job", float64(coalesced)/n)
	r.set("workflow.envelopes_per_job", float64(envelopes)/n)
	r.set("workflow.solo_retries_per_job", float64(solo)/n)
	r.set("embed.index_builds_per_job", float64(builds)/n)
	r.set("embed.index_reuses_per_job", float64(reuses)/n)
	r.set("embed.warm_loads", 0)
	setStages(r, results)
}

// setStages sets the pipeline.<stage>.* metrics, per job, from the
// results' stage reports.
func setStages(r *result, results []*pipeline.Result) {
	n := float64(len(results))
	sums := make(map[string]*[4]float64)
	for _, res := range results {
		for _, st := range res.Stages {
			s := sums[st.Name]
			if s == nil {
				s = new([4]float64)
				sums[st.Name] = s
			}
			s[0] += ms(st.Timing.Service)
			s[1] += ms(st.Timing.Wait)
			s[2] += float64(st.In)
			s[3] += float64(st.Out)
		}
	}
	for name, s := range sums {
		p := "pipeline." + name
		r.set(p+".service_ms", s[0]/n)
		r.set(p+".wait_ms", s[1]/n)
		r.set(p+".records_in", s[2]/n)
		r.set(p+".records_out", s[3]/n)
	}
}

// setBoundary sets the llm.*, embed.* and self-time metrics that come
// from the boundary probe and the spans, over n jobs that billed logical
// upstream calls.
func setBoundary(r *result, rec *recorder, n float64, logical int) {
	calls := rec.calls.Load()
	r.set("llm.calls_per_job", float64(calls)/n)
	r.set("llm.prompt_tokens_per_job", float64(rec.promptTokens.Load())/n)
	r.set("llm.completion_tokens_per_job", float64(rec.completionTok.Load())/n)
	if calls > 0 {
		r.set("llm.us_per_call", float64(rec.callNanos.Load())/float64(calls)/1e3)
	}
	r.set("llm.busy_ms_per_job", float64(rec.callNanos.Load())/n/1e6)
	if logical > 0 {
		r.set("llm.attempts_per_call", float64(calls)/float64(logical))
	}
	r.set("llm.duplicate_calls", float64(rec.duplicates.Load()))
	if failed := rec.failedKeys(); failed > 0 {
		r.set("resil.healed_share", float64(rec.healed.Load())/float64(failed))
	}
	if e := rec.embeds.Load(); e > 0 {
		r.set("embed.embeds_per_job", float64(e)/n)
		r.set("embed.us_per_embed", float64(rec.embedNanos.Load())/float64(e)/1e3)
	}
	var wall, covered, callSum, self int64
	for _, jt := range rec.jobTraces() {
		wall += jt.wall
		covered += jt.covered
		callSum += jt.callSum
		self += jt.self
	}
	if wall > 0 {
		r.set("llm.covered_share", float64(covered)/float64(wall))
		r.set("llm.inflight_mean", float64(callSum)/float64(wall))
		r.set("bench.job_self_ms", float64(self)/n/1e6)
	}
}

// faultRouter injects a plan's wrong-section faults into TaskBatch
// envelope replies only, and its other faults into every call. On an
// envelope a wrong-section fault drops the waiters' sections and the
// batcher retries them solo; on a unit reply the fault layer truncates
// the text instead, which no retry heals and the impute operator takes
// as an answer, so it would make the output differ from the reference.
type faultRouter struct {
	envelope, unit llm.Model
}

func newFaultRouter(m llm.Model, plan llm.FaultPlan, seed int64) *faultRouter {
	plan.Seed = seed
	unit := plan
	unit.WrongSection = 0
	return &faultRouter{envelope: llm.WithFaults(m, plan), unit: llm.WithFaults(m, unit)}
}

func (f *faultRouter) Name() string { return f.unit.Name() }

func (f *faultRouter) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if isEnvelope(req.Prompt) {
		return f.envelope.Complete(ctx, req)
	}
	return f.unit.Complete(ctx, req)
}
