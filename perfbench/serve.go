package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workflow"
)

// serve-mixed is an open loop into one resident server, driven through
// Handler().ServeHTTP in process, on a fixed arrival schedule over a
// ladder of rates, across four tenants. The upstream has a small fixed
// latency so jobs overlap; the sim and embedding do little, so admission,
// queueing, the shared cache and coalescer, JSON and the cache log decide
// the numbers.
var (
	serveTenants = []string{"acme", "globex", "initech", "umbrella"}
	// serveLatency is the upstream's fixed per-call delay.
	serveLatency = 2 * time.Millisecond
	// serveRungs is the rate ladder, in jobs per second, with each rung's
	// share of the run. The first rung is the reference the job latency
	// percentiles are taken at.
	serveRungs = []struct{ rate, share float64 }{{50, 0.5}, {100, 0.25}, {150, 0.25}}
	// serveP95Limit is the latency limit a rung's p95 must meet for the
	// rung to count as sustained.
	serveP95Limit = 100 * time.Millisecond
	// serveMaxQueue lets a queue absorb a stall of a few hundred ms of the
	// host at the top rung, so a stall delays jobs rather than refusing
	// them; a rate the server cannot sustain still grows the backlog.
	serveMaxQueue = 64
	// serveMaxLag is how late the generator may send at p95 before the
	// run is invalid.
	serveMaxLag = 10 * time.Millisecond
)

// Traffic classes and their shares of arrivals.
const (
	classResubmit = iota // an exact hot-set job: pure cache reads
	classFresh           // hot records plus records no job used before
	classFlavor          // filter then sort over a flavor subset
	classTwin            // one fresh job from two tenants at one instant
)

// classBlock holds each class's arrivals per block of 20; every block of
// the schedule is a seeded shuffle of it, so the mix is exact.
var classBlock = []int{
	classResubmit, classResubmit, classResubmit, classResubmit, classResubmit, classResubmit,
	classFresh, classFresh, classFresh, classFresh, classFresh, classFresh, classFresh, classFresh,
	classFlavor, classFlavor, classFlavor,
	classTwin, classTwin, classTwin,
}

const (
	hotJobs    = 12 // pre-populated restaurant jobs the traffic reuses
	hotRecords = 8  // base records per hot job
	hotMatch   = 3  // of them of a cuisine the filter keeps
	// historyJobs pre-populated jobs of historyRecords records each never
	// recur; they give the cache log a realistic size to replay.
	historyJobs    = 120
	historyRecords = 12
	freshHot       = 4  // hot records a fresh job reuses
	freshNew       = 4  // records a fresh job adds
	flavorRecs     = 8  // flavors per sort job
	serveTrain     = 60 // the shared train side table
	serveSetupReps = 15 // set-up repetitions
)

// arrival is one scheduled submission.
type arrival struct {
	due    time.Duration // offset from the rung's start
	class  int
	key    int // the job's input; twins and resubmissions share keys
	tenant string
	body   []byte
}

// served is one submission's outcome.
type served struct {
	arrival
	latency, roundTrip time.Duration
	lag                time.Duration
	code               int
	status             server.JobStatus
}

// serveWorld holds the generated inputs.
type serveWorld struct {
	train   []dataset.Record
	inputs  map[int]jobInput
	hot     []jobInput
	nextKey int
}

func newServeWorld(seed int64) *serveWorld {
	w := &serveWorld{inputs: make(map[int]jobInput)}
	w.train = dataset.GenerateRestaurants(serveTrain, 0, seed*7+3).Train
	for i := 0; i < hotJobs; i++ {
		in := restaurantJob(fmt.Sprintf("h%d-", i), hotRecords, hotMatch, 0, 0.3, seed*1000+int64(i))
		in.tables["train"] = w.train
		w.hot = append(w.hot, in)
		w.inputs[i] = in
	}
	w.nextKey = hotJobs
	return w
}

// fresh builds a fresh job: freshHot records drawn from the hot set,
// half of them of a kept cuisine, plus freshNew records generated for
// this job alone.
func (w *serveWorld) fresh(key int, rng *rand.Rand, seed int64) jobInput {
	in := restaurantJob(fmt.Sprintf("f%d-", key), freshNew, freshNew/2, 0, 0.3, seed*1_000_000+int64(key))
	src := in.tables["source"]
	for k := 0; k < freshHot; k++ {
		h := w.hot[rng.Intn(len(w.hot))]
		var cands []dataset.Record
		for _, r := range h.tables["source"] {
			if cuisine, _ := r.Get("type"); servesCuisine(cuisine) == (k%2 == 0) {
				cands = append(cands, r)
			}
		}
		r := cands[rng.Intn(len(cands))]
		src = append(src, r)
		in.gold[r.ID] = h.gold[r.ID]
	}
	in.tables = map[string][]dataset.Record{"source": dedupeIDs(src), "train": w.train}
	in.records = len(in.tables["source"])
	return in
}

// dedupeIDs drops records whose ID already appeared.
func dedupeIDs(recs []dataset.Record) []dataset.Record {
	seen := make(map[string]bool)
	out := recs[:0]
	for _, r := range recs {
		if !seen[r.ID] {
			seen[r.ID] = true
			out = append(out, r)
		}
	}
	return out
}

func body(tenant string, in jobInput) []byte {
	b, err := json.Marshal(server.SubmitRequest{Tenant: tenant, Spec: in.spec, Tables: in.tables, Optimize: true})
	if err != nil {
		panic(err) // generated tables always encode
	}
	return b
}

// schedule lays out every arrival of the ladder, scaled to total.
func (w *serveWorld) schedule(seed int64, total time.Duration, rungs []int) [][]arrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]arrival, len(serveRungs))
	for _, ri := range rungs {
		rung := serveRungs[ri]
		d := time.Duration(rung.share * float64(total))
		gap := time.Duration(float64(time.Second) / rung.rate)
		var block []int
		for t := time.Duration(0); t < d; t += gap {
			if len(block) == 0 {
				block = append(block, classBlock...)
				rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			}
			class := block[0]
			block = block[1:]
			tenant := serveTenants[rng.Intn(len(serveTenants))]
			a := arrival{due: t, class: class, tenant: tenant}
			switch class {
			case classResubmit:
				a.key = rng.Intn(hotJobs)
			case classFresh, classTwin:
				a.key = w.nextKey
				w.inputs[a.key] = w.fresh(a.key, rng, seed)
				w.nextKey++
			case classFlavor:
				a.key = w.nextKey
				w.inputs[a.key] = flavorJob(flavorRecs/2, flavorRecs/2, seed*1_000_000+int64(a.key))
				w.nextKey++
			}
			a.body = body(tenant, w.inputs[a.key])
			out[ri] = append(out[ri], a)
			if class == classTwin {
				twin := a
				for twin.tenant == a.tenant {
					twin.tenant = serveTenants[rng.Intn(len(serveTenants))]
				}
				twin.body = body(twin.tenant, w.inputs[a.key])
				out[ri] = append(out[ri], twin)
			}
		}
	}
	return out
}

// toggleProbe is the boundary probe with an off switch, so one resident
// server serves an untraced phase and then a traced one.
type toggleProbe struct {
	probe *probeModel
	on    atomic.Bool
}

func (t *toggleProbe) Name() string { return t.probe.Name() }

func (t *toggleProbe) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if t.on.Load() {
		return t.probe.Complete(ctx, req)
	}
	return t.probe.inner.Complete(ctx, req)
}

// serveSubstrate is one server's injected handles.
type serveSubstrate struct {
	srv      *server.Server
	exec     *workflow.ExecLayer
	registry *embed.Registry
	// replay and replayTime are the cache-log replay's records and time.
	replay     workflow.ReplayStats
	replayTime time.Duration
}

// boot builds a server over the state dir and waits until it answers
// health checks.
func boot(model llm.Model, state string) (*serveSubstrate, error) {
	s := &serveSubstrate{exec: workflow.NewExecLayer(), registry: embed.NewRegistry()}
	start := time.Now()
	st, err := s.exec.OpenState(state)
	if err != nil {
		return nil, fmt.Errorf("replaying the cache log: %w", err)
	}
	s.replay, s.replayTime = st, time.Since(start)
	s.srv = server.New(server.Config{Model: model, StateDir: state, MaxQueue: serveMaxQueue,
		Exec: s.exec, Registry: s.registry, Ledger: workflow.NewAttribution()})
	if err := s.srv.StateError(); err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("server not healthy after boot: %d", rec.Code)
	}
	return s, nil
}

func drain(srv *server.Server) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	err := srv.Drain(ctx)
	return time.Since(start), err
}

// submit sends one request through the handler and returns when the
// response is complete, with the time it completed; decoding the body
// comes after.
func submit(h http.Handler, ctx context.Context, b []byte) (int, server.JobStatus, time.Time, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/pipelines", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	end := time.Now()
	var st server.JobStatus
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return rec.Code, st, end, fmt.Errorf("decoding job status: %w", err)
		}
	}
	return rec.Code, st, end, nil
}

// drive runs one rung's arrivals open loop: each is sent when due,
// whatever is still in flight, and timed from when it was due.
func drive(h http.Handler, arrivals []arrival, firstID int64, rec *recorder, sample func()) []served {
	out := make([]served, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-stop:
				return
			}
		}
	}()
	for i := range arrivals {
		a := arrivals[i]
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := firstID + int64(i)
			code, st, end, err := submit(h, withJob(context.Background(), id), a.body)
			if rec != nil {
				rec.add(span{kind: spanJob, job: id, start: int64(due.Sub(rec.epoch)), end: int64(end.Sub(rec.epoch)), tenant: a.tenant})
			}
			if err != nil {
				code = 0
			}
			out[i] = served{arrival: a, latency: end.Sub(due), roundTrip: end.Sub(sent),
				lag: sent.Sub(due), code: code, status: st}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-sampled
	return out
}

func runServe(o options) (*result, error) {
	r := newResult()
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	state := filepath.Join(dir, "state")
	defer os.RemoveAll(state)
	upstream := newSim()
	rec := newRecorder(func(context.Context) int64 { return 0 })
	probe := &toggleProbe{probe: &probeModel{inner: llm.WithLatency(upstream, serveLatency), rec: rec}}
	w := newServeWorld(o.seed)

	// Untimed: pre-populate the state dir with the hot set, then drain so
	// the cache log, tenant spend and index files are on disk.
	pre, err := boot(probe, state)
	if err != nil {
		return nil, err
	}
	history := make([]jobInput, 0, historyJobs+len(w.hot))
	for i := 0; i < historyJobs; i++ {
		history = append(history, restaurantJob(fmt.Sprintf("p%d-", i), historyRecords, historyRecords/3, serveTrain, 0.3, -o.seed*1000-int64(i)))
	}
	for i, in := range append(history, w.hot...) {
		code, st, _, err := submit(pre.srv.Handler(), context.Background(), body(serveTenants[i%len(serveTenants)], in))
		if err != nil || code != http.StatusOK || st.State != server.JobDone {
			return nil, fmt.Errorf("pre-populating job %d: code %d state %s err %v %s", i, code, st.State, err, st.Error)
		}
	}
	if _, err := drain(pre.srv); err != nil {
		return nil, err
	}

	// Set-up: cache-log replay, tenant-spend load and server construction
	// until healthy, several times; the last server stays up.
	var setups, replays []float64
	var sub *serveSubstrate
	for i := 0; i < serveSetupReps; i++ {
		if sub != nil {
			if _, err := drain(sub.srv); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if sub, err = boot(probe, state); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		replays = append(replays, ms(sub.replayTime))
	}
	r.set("setup_s", median(setups))

	// Warm-up, untimed: resubmit the hot set once, so the first measured
	// jobs do not pay the one-time index load and lazy runtime set-up.
	h := sub.srv.Handler()
	for i, in := range w.hot {
		if code, _, _, err := submit(h, context.Background(), body(serveTenants[i%len(serveTenants)], in)); err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("warm-up job %d: code %d err %v", i, code, err)
		}
	}

	total := time.Duration(o.seconds * float64(time.Second))
	var phases [][]served
	var plainRef []served
	rungs := []int{0, 1, 2}
	if o.trace {
		// An untraced third of the run at the reference rate, for the
		// tracing overhead; the first rung takes half of the time given.
		plain := w.schedule(o.seed+1, total/3*2, []int{0})
		plainRef = drive(h, plain[0], 1_000_000, nil, func() {})
		total -= total / 3
		probe.on.Store(true)
	}
	sched := w.schedule(o.seed, total, rungs)
	var backlog []int
	var rungBacklog [][]int
	stopSampler := goroutineSampler()
	asksBefore, freeBefore := asks(sub.srv)
	statsBefore := sub.srv.Stats()
	buildsBefore, reusesBefore := sub.registry.Stats()
	a := sampleProc()
	wallStart := time.Now()
	id := int64(1)
	var spans *recorder
	if o.trace {
		spans = rec
	}
	for _, ri := range rungs {
		var samples []int
		phases = append(phases, drive(h, sched[ri], id, spans, func() {
			st := sub.srv.Stats()
			samples = append(samples, st.Running+st.Waiting)
		}))
		id += int64(len(sched[ri]))
		rungBacklog = append(rungBacklog, samples)
		backlog = append(backlog, samples...)
	}
	wall := time.Since(wallStart)
	b := sampleProc()
	goroutines := stopSampler()
	statsAfter := sub.srv.Stats()
	buildsAfter, reusesAfter := sub.registry.Stats()
	warm, _ := sub.registry.PersistStats()
	asksAfter, freeAfter := asks(sub.srv)
	drainTime, err := drain(sub.srv)
	if err != nil {
		return nil, err
	}
	if _, _, ok := sub.srv.Balanced(); !ok {
		r.fail("tenant ledger does not balance against the upstream counter")
	}

	// Correctness, outside the timed region.
	var all []served
	for _, p := range phases {
		all = append(all, p...)
	}
	checked := append(append([]served(nil), all...), plainRef...)
	refs, tp, err := serveReferences(w, upstream, checked)
	if err != nil {
		return nil, err
	}
	ok := checkServe(r, checked, w, refs)

	// Latency, throughput and the ladder.
	var lat, lags []float64
	for _, s := range phases[0] {
		lat = append(lat, ms(s.latency))
	}
	for _, s := range all {
		lags = append(lags, ms(s.lag))
	}
	lagP95 := quantile(lags, 0.95)
	if lagP95 > ms(serveMaxLag) {
		r.fail("generator fell behind: lag p95 %.2f ms over %v", lagP95, serveMaxLag)
	}
	var sustained float64
	for i, p := range phases {
		var pl []float64
		refused, completed := 0, 0
		var last time.Duration
		for _, s := range p {
			pl = append(pl, ms(s.latency))
			if end := s.due + s.latency; end > last {
				last = end
			}
			switch s.code {
			case http.StatusTooManyRequests, http.StatusPaymentRequired, http.StatusServiceUnavailable:
				refused++
			case http.StatusOK:
				completed++
			}
		}
		p95 := quantile(pl, 0.95)
		growing := backlogGrows(rungBacklog[i])
		met := p95 <= ms(serveP95Limit) && refused == 0 && !growing
		r.note("rung %.0f jobs/s: %d jobs, p95 %.1f ms, %d refused, backlog growing %t, sustained %t",
			serveRungs[rungs[i]].rate, len(p), p95, refused, growing, met)
		if met {
			// Completions over the rung's span from its first arrival to
			// its last response.
			sustained = float64(completed) / last.Seconds()
		}
	}
	if sustained == 0 {
		r.note("no rung met the %v p95 limit; reporting the first rung's completion rate", serveP95Limit)
		sustained = float64(len(phases[0])) / (serveRungs[0].share * total.Seconds())
	}

	var records int
	var cost float64
	for i, s := range all {
		if ok[i] {
			records += w.inputs[s.key].records
		}
		if s.status.Result != nil {
			cost += s.status.Result.Cost
		}
	}
	n := float64(len(all))
	if !o.trace {
		r.set("job_p50_ms", median(lat))
		r.note("p50 sample: %d jobs", len(lat))
		r.set("records_per_s", float64(records)/wall.Seconds())
		r.set("sustained_jobs_per_s", sustained)
		r.set("upstream_calls_per_job", float64(statsAfter.UpstreamCalls-statsBefore.UpstreamCalls)/n)
		r.set("cost_usd_per_job", cost/n)
		r.set("cpu_ms_per_job", ms(b.cpu-a.cpu)/n)
		r.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	// Per-layer metrics of the traced ladder.
	writeTrace(rec, dir, o)
	setProc(r, a, b, len(all), goroutines)
	r.set("bench.lag_p95_ms", lagP95)
	setP95(r, lat)
	var plainLat []float64
	for _, s := range plainRef {
		plainLat = append(plainLat, ms(s.latency))
	}
	r.set("bench.trace_overhead_share", median(lat)/median(plainLat)-1)
	setBoundary(r, rec, n, statsAfter.UpstreamCalls-statsBefore.UpstreamCalls)
	if n := asksAfter - asksBefore; n > 0 {
		r.set("workflow.cache_hit_ratio", float64(statsAfter.CacheHits-statsBefore.CacheHits)/float64(n))
		r.set("server.free_serve_share", float64(freeAfter-freeBefore)/float64(n))
	}
	r.set("workflow.coalesced_per_job", float64(statsAfter.Coalesced-statsBefore.Coalesced)/n)
	es := sub.exec.Stats()
	r.set("workflow.envelopes_per_job", float64(es.Batches)/n)
	r.set("workflow.solo_retries_per_job", float64(es.SoloRetries)/n)
	r.set("workflow.cachelog_replay_ms", median(replays))
	r.set("workflow.cachelog_records", float64(sub.replay.Records))
	r.set("embed.index_builds_per_job", float64(buildsAfter-buildsBefore)/n)
	r.set("embed.index_reuses_per_job", float64(reusesAfter-reusesBefore)/n)
	r.set("embed.warm_loads", float64(warm))
	var queue, run []float64
	refused := 0
	for _, s := range all {
		switch s.code {
		case http.StatusOK:
			queue = append(queue, ms(s.roundTrip)-s.status.WallMS)
			run = append(run, s.status.WallMS)
		case http.StatusTooManyRequests, http.StatusPaymentRequired, http.StatusServiceUnavailable:
			refused++
		}
	}
	r.set("server.queue_wait_p95_ms", quantile(queue, 0.95))
	r.set("server.run_p50_ms", median(run))
	r.set("server.refused_share", float64(refused)/n)
	maxBacklog := 0
	for _, v := range backlog {
		if v > maxBacklog {
			maxBacklog = v
		}
	}
	r.set("server.backlog_max", float64(maxBacklog))
	r.set("server.drain_ms", ms(drainTime))

	// The pipeline layer on this workload's input, replayed: the first
	// fresh job against the tape, unbatched as the server runs it.
	for _, s := range all {
		if s.class != classFresh {
			continue
		}
		pl, err := compileOptimized(w.inputs[s.key].spec)
		if err != nil {
			return nil, err
		}
		ec := pipeline.ExecConfig{Embedder: &timingEmbedder{inner: embed.Default(), rec: newRecorder(jobOf)}}
		res, err := setReplay(r, pl, tp, upstream, w.inputs[s.key], refs[s.key], ec)
		if err != nil {
			return nil, err
		}
		setStages(r, []*pipeline.Result{res})
		em := ec.Embedder.(*timingEmbedder).rec
		if e := em.embeds.Load(); e > 0 {
			r.set("embed.embeds_per_job", float64(e)/7)
			r.set("embed.us_per_embed", float64(em.embedNanos.Load())/float64(e)/1e3)
		}
		break
	}
	setLedger(r, tp)
	if err := setCompile(r); err != nil {
		return nil, err
	}
	return r, nil
}

// setServerProbe serves jobs of an ETL workload through a fresh
// in-process server one after another, then drains it: the server.*
// metrics of that workload's jobs.
func setServerProbe(r *result, model llm.Model, cfg etlConfig, inputs []jobInput, dir string) error {
	srv := server.New(server.Config{Model: model, StateDir: filepath.Join(dir, "server"),
		Batch: cfg.batch, Resilience: cfg.resilience})
	h := srv.Handler()
	var queue, run []float64
	for i, in := range inputs {
		start := time.Now()
		code, st, end, err := submit(h, context.Background(), body(serveTenants[i%len(serveTenants)], in))
		if err != nil || code != http.StatusOK || st.State != server.JobDone {
			return fmt.Errorf("server probe job %d: code %d state %s err %v %s", i, code, st.State, err, st.Error)
		}
		queue = append(queue, ms(end.Sub(start))-st.WallMS)
		run = append(run, st.WallMS)
	}
	served, free := asks(srv)
	d, err := drain(srv)
	if err != nil {
		return err
	}
	if served > 0 {
		r.set("server.free_serve_share", float64(free)/float64(served))
	}
	r.set("server.queue_wait_p95_ms", quantile(queue, 0.95))
	r.set("server.run_p50_ms", median(run))
	r.set("server.refused_share", 0)
	r.set("server.backlog_max", 1)
	r.set("server.drain_ms", ms(d))
	return nil
}

// asks sums, over the tenants, the unit asks the server's shared layer
// served and how many of them it served free.
func asks(srv *server.Server) (served, free int) {
	for _, t := range serveTenants {
		if rep, err := srv.Report(t); err == nil {
			served, free = served+rep.Served, free+rep.FreeServed
		}
	}
	return served, free
}

// compileOptimized runs a spec through Optimize and Compile, as the
// server does for a submission with Optimize set.
func compileOptimized(spec pipeline.Spec) (*pipeline.Pipeline, error) {
	opt, _, err := pipeline.Optimize(spec)
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	return pipeline.Compile(opt)
}

// serveReferences runs every distinct job input once, unbatched with
// Parallelism 1 on a fresh layer, recording the unit answers on a tape.
func serveReferences(w *serveWorld, upstream llm.Model, all []served) (map[int]reference, *tape, error) {
	tp := newTape()
	refs := make(map[int]reference)
	for _, s := range all {
		if _, done := refs[s.key]; done {
			continue
		}
		in := w.inputs[s.key]
		pl, err := compileOptimized(in.spec)
		if err != nil {
			return nil, nil, err
		}
		res, err := pl.Run(context.Background(), pipeline.ExecConfig{Model: tp.recording(upstream), Parallelism: 1}, in.tables)
		if err != nil {
			return nil, nil, fmt.Errorf("reference run of job %d: %w", s.key, err)
		}
		refs[s.key] = reference{res.Tables, res.Scalars}
	}
	return refs, tp, nil
}

// checkServe is serve-mixed's correctness gate: a refused, failed or
// output-mismatched submission counts as failed. It sets attempted,
// failed, completed_share, failed_share and answer_accuracy.
func checkServe(r *result, all []served, w *serveWorld, refs map[int]reference) []bool {
	ok := make([]bool, len(all))
	sc := newScorer()
	for i, s := range all {
		r.attempted++
		switch {
		case s.code != http.StatusOK || s.status.State != server.JobDone || s.status.Result == nil:
			r.failed++
			r.note("submission %d (%s): code %d, state %s %s", i, s.tenant, s.code, s.status.State, s.status.Error)
		case !sameOutput(s.status.Result, refs[s.key]):
			r.failed++
			r.fail("submission %d output differs from its reference run", i)
		default:
			ok[i] = true
			sc.add(s.status.Result.Tables, w.inputs[s.key].gold)
		}
	}
	setShares(r)
	sc.set(r)
	return ok
}

// sameOutput compares a wire result with a reference run through their
// JSON encodings, which is how the result crossed the wire.
func sameOutput(got *server.JobResult, ref reference) bool {
	a, err1 := json.Marshal(got.Tables)
	b, err2 := json.Marshal(ref.tables)
	if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
		return false
	}
	if len(got.Scalars) != len(ref.scalars) {
		return false
	}
	for k, v := range ref.scalars {
		if got.Scalars[k] != v {
			return false
		}
	}
	return true
}

// backlogGrows reports whether the jobs running plus waiting, sampled
// through a rung, rose from its first third to its last by more than the
// four running slots: a median over each third, so one stall does not
// count as growth.
func backlogGrows(samples []int) bool {
	if len(samples) < 6 {
		return false
	}
	third := len(samples) / 3
	med := func(xs []int) float64 {
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = float64(x)
		}
		return median(f)
	}
	return med(samples[len(samples)-third:]) > med(samples[:third])+4
}
