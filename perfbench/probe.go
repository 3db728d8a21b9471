package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embed"
	"repro/internal/llm"
	"repro/internal/prompt"
	"repro/internal/workflow"
)

// Span kinds. A job span covers one job from when it was due to its
// result; call and embed spans carry the job they ran for as parent.
const (
	spanJob   = "job"
	spanCall  = "call"
	spanEmbed = "embed"
)

// span is one traced interval, in nanoseconds since the recorder's epoch.
type span struct {
	kind          string
	job           int64
	start, end    int64
	stage, tenant string
	failed        bool
}

// jobKey carries the benchmark's job id in a context.
type jobKey struct{}

func withJob(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, jobKey{}, id)
}

func jobOf(ctx context.Context) int64 {
	id, _ := ctx.Value(jobKey{}).(int64)
	return id
}

// recorder keeps spans in memory until the run ends, plus the boundary
// counters that need no span arithmetic.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// seen holds the (scope, model, prompt) keys whose call already
	// succeeded, for the duplicate-call count; failed those whose call
	// failed at least once, true once a later attempt healed it.
	seen   map[string]bool
	failed map[string]bool

	calls, duplicates, healed   atomic.Int64
	promptTokens, completionTok atomic.Int64
	callNanos                   atomic.Int64
	embeds, embedNanos          atomic.Int64

	// currentJob is the job a closed loop is running; embed calls carry
	// no context, so they take it as parent.
	currentJob atomic.Int64
	// scopeOf maps a call to the scope its shared cache spans: one job
	// when every job gets a fresh layer, the process when one layer
	// serves all jobs.
	scopeOf func(ctx context.Context) int64
}

func newRecorder(scopeOf func(ctx context.Context) int64) *recorder {
	return &recorder{epoch: time.Now(), seen: make(map[string]bool), failed: make(map[string]bool), scopeOf: scopeOf}
}

// failedKeys counts the calls that failed at least once.
func (r *recorder) failedKeys() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failed)
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// probeModel is the boundary probe: it sits directly above the upstream
// (simulator, latency and faults) and below the resilience wrapper, so it
// sees every physical attempt.
type probeModel struct {
	inner llm.Model
	rec   *recorder
}

func (p *probeModel) Name() string { return p.inner.Name() }

func (p *probeModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	key := strconv.FormatInt(p.rec.scopeOf(ctx), 10) + "\x00" + p.inner.Name() + "\x00" + req.Prompt
	p.rec.mu.Lock()
	dup := p.rec.seen[key]
	p.rec.mu.Unlock()
	start := p.rec.now()
	resp, err := p.inner.Complete(ctx, req)
	end := p.rec.now()
	p.rec.calls.Add(1)
	p.rec.callNanos.Add(end - start)
	if err == nil {
		p.rec.promptTokens.Add(int64(resp.Usage.PromptTokens))
		p.rec.completionTok.Add(int64(resp.Usage.CompletionTokens))
		if dup {
			p.rec.duplicates.Add(1)
		}
	}
	p.rec.mu.Lock()
	if err == nil {
		p.rec.seen[key] = true
		if healed, ok := p.rec.failed[key]; ok && !healed {
			p.rec.failed[key] = true
			p.rec.healed.Add(1)
		}
	} else if _, ok := p.rec.failed[key]; !ok {
		p.rec.failed[key] = false
	}
	p.rec.spans = append(p.rec.spans, span{kind: spanCall, job: jobOf(ctx), start: start, end: end,
		stage: workflow.StageTag(ctx), tenant: workflow.TenantTag(ctx), failed: err != nil})
	p.rec.mu.Unlock()
	return resp, err
}

// timingEmbedder wraps the default embedder, timing every Embed call.
type timingEmbedder struct {
	inner embed.Embedder
	rec   *recorder
}

func (e *timingEmbedder) Dim() int { return e.inner.Dim() }

func (e *timingEmbedder) Embed(text string) []float64 {
	start := e.rec.now()
	v := e.inner.Embed(text)
	end := e.rec.now()
	e.rec.embeds.Add(1)
	e.rec.embedNanos.Add(end - start)
	e.rec.add(span{kind: spanEmbed, job: e.rec.currentJob.Load(), start: start, end: end})
	return v
}

// jobTrace is what the spans say about one job.
type jobTrace struct {
	wall, covered, callSum, self int64
}

// jobTraces groups the spans by job and derives, per job: the union of
// its in-flight calls (covered), the sum of their durations (for the
// mean number in flight), and its self time: the job span minus the
// time covered by its calls or its embed calls.
func (r *recorder) jobTraces() map[int64]*jobTrace {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	jobs := make(map[int64]*jobTrace)
	calls := make(map[int64][][2]int64)
	embeds := make(map[int64][][2]int64)
	for _, s := range spans {
		switch s.kind {
		case spanJob:
			jobs[s.job] = &jobTrace{wall: s.end - s.start}
		case spanCall:
			calls[s.job] = append(calls[s.job], [2]int64{s.start, s.end})
		case spanEmbed:
			embeds[s.job] = append(embeds[s.job], [2]int64{s.start, s.end})
		}
	}
	for id, jt := range jobs {
		for _, c := range calls[id] {
			jt.callSum += c[1] - c[0]
		}
		jt.covered = unionLen(calls[id])
		jt.self = jt.wall - unionLen(append(calls[id], embeds[id]...))
	}
	return jobs
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// writeSpans writes the spans as tab-separated lines after a header
// carrying the machine fingerprint.
func (r *recorder) writeSpans(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# kind\tjob\tstart_ns\tend_ns\tstage\ttenant\tfailed\n", header)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%s\t%t\n", s.kind, s.job, s.start, s.end, s.stage, s.tenant, s.failed)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tape maps unit prompts to the answers the upstream gave them. It is
// filled from the reference runs, which are unbatched, so every unit
// task a workload asks has an entry.
type tape struct {
	mu      sync.Mutex
	answers map[string]llm.Response
	order   []llm.Request
}

func newTape() *tape { return &tape{answers: make(map[string]llm.Response)} }

// recording wraps m so every successful answer lands on the tape.
func (t *tape) recording(m llm.Model) llm.Model {
	return llm.Func{ModelName: m.Name(), Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		resp, err := m.Complete(ctx, req)
		if err == nil {
			t.mu.Lock()
			if _, ok := t.answers[req.Prompt]; !ok {
				t.answers[req.Prompt] = resp
				t.order = append(t.order, req)
			}
			t.mu.Unlock()
		}
		return resp, err
	}}
}

var taskHeader = regexp.MustCompile(`(?m)^### Task (\d+)\n`)

// replayModel answers from a tape at zero cost. A TaskBatch envelope is
// split into its unit prompts and answered section by section, so a
// batched run replays an unbatched recording. Prompts missing from the
// tape fall back to the upstream and are counted.
type replayModel struct {
	tape     *tape
	fallback llm.Model
	misses   atomic.Int64
}

func (m *replayModel) Name() string { return m.fallback.Name() }

func (m *replayModel) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	m.tape.mu.Lock()
	resp, ok := m.tape.answers[req.Prompt]
	m.tape.mu.Unlock()
	if ok {
		return resp, nil
	}
	if units := splitEnvelope(req.Prompt); units != nil {
		var b strings.Builder
		var out llm.Response
		for i, u := range units {
			r, err := m.Complete(ctx, llm.Request{Prompt: u, Temperature: req.Temperature, Seed: req.Seed})
			if err != nil {
				return llm.Response{}, err
			}
			fmt.Fprintf(&b, "### Task %d\n%s\n", i+1, strings.TrimRight(r.Text, "\n"))
			out.Usage = out.Usage.Add(r.Usage)
			out.Model = r.Model
		}
		out.Text = b.String()
		out.Usage.Calls = 1
		return out, nil
	}
	m.misses.Add(1)
	return m.fallback.Complete(ctx, req)
}

// isEnvelope reports whether p looks like a prompt.TaskBatch envelope,
// cheaply enough to ask on every upstream call.
func isEnvelope(p string) bool {
	return strings.HasPrefix(p, "Below are ") && strings.Contains(p, "\n### Task 1\n")
}

// splitEnvelope returns the unit prompts of a prompt.TaskBatch envelope,
// or nil when p is not one.
func splitEnvelope(p string) []string {
	if !isEnvelope(p) {
		return nil
	}
	locs := taskHeader.FindAllStringIndex(p, -1)
	if len(locs) == 0 {
		return nil
	}
	units := make([]string, len(locs))
	for i, loc := range locs {
		end := len(p)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		units[i] = p[loc[1]:end]
	}
	if prompt.TaskBatch(units) != p {
		return nil
	}
	return units
}
