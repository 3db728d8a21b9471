package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/resil"
	"repro/internal/workflow"
)

// Stage is one operator node of a compiled pipeline: a thin typed wrapper
// that renders records into the operator's item shape, invokes the engine,
// and folds the result back into a record table.
type Stage interface {
	// Name is the stage's unique identifier from the spec.
	Name() string
	// Kind is the wrapped operator.
	Kind() string
	// Input names the upstream stage ("source" for the root table).
	Input() string
	// Run executes the operator over the input table within env and
	// returns the stage's output table.
	Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error)
}

// Streamer is the optional streaming face of a Stage: a stage that can
// process its input chunk by chunk, as the chunks arrive, emitting
// outputs while its upstream is still producing. The executor streams a
// stage only when CanStream reports true; RunSequential never streams.
type Streamer interface {
	// CanStream reports whether the configured strategy keeps each
	// record's outcome independent of which other records share a chunk —
	// the property that makes chunked execution return byte-identical
	// temperature-0 results to a whole-table run.
	CanStream() bool
	// RunStream consumes chunks from in until it closes, emits each input
	// chunk's output records via emit (which blocks on downstream
	// backpressure), and returns how many input records it consumed.
	RunStream(ctx context.Context, env *Env, in <-chan []dataset.Record, emit func([]dataset.Record) error) (int, error)
}

// runChunked drives a streaming stage's common loop: receive each chunk
// from in, hand it to process, and emit its outputs as one chunk. The
// stage's stats observe how long the stage waited for each chunk versus
// how long processing and emission took.
func runChunked(ctx context.Context, env *Env, in <-chan []dataset.Record, emit func([]dataset.Record) error,
	process func(ctx context.Context, chunk []dataset.Record) ([]dataset.Record, error)) (int, error) {
	consumed := 0
	for {
		start := time.Now()
		chunk, ok, err := recvChunk(ctx, in)
		wait := time.Since(start)
		if err != nil || !ok {
			return consumed, err
		}
		consumed += len(chunk)
		work := time.Now()
		out, err := process(ctx, chunk)
		if err != nil {
			if !degradable(env, err) {
				return consumed, err
			}
			// Degraded mode: retry the chunk record by record so one
			// poisoned record costs itself, not its chunk-mates. Healthy
			// records were answered (and cached) during the chunk attempt,
			// so their solo retries are upstream-free.
			out = out[:0]
			for _, r := range chunk {
				solo, err := process(ctx, []dataset.Record{r})
				if err != nil {
					if !degradable(env, err) {
						return consumed, err
					}
					env.dropRecord(env.stats.stage, r, err)
					continue
				}
				out = append(out, solo...)
			}
		}
		if err := emit(out); err != nil {
			return consumed, err
		}
		env.stats.observe(wait, time.Since(work), len(chunk))
	}
}

// degradable reports whether a process error may be absorbed by skip or
// quarantine mode. Cancellation, budget exhaustion, and an open circuit
// breaker poison every record, not one — degrading on them would drop
// the whole stream one record at a time.
func degradable(env *Env, err error) bool {
	if env.onErr != OnRecordSkip && env.onErr != OnRecordQuarantine {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, workflow.ErrBudgetExhausted) || errors.Is(err, resil.ErrBreakerOpen) {
		return false
	}
	return true
}

// baseStage carries the shared identity fields.
type baseStage struct{ spec StageSpec }

func (b baseStage) Name() string  { return b.spec.Name }
func (b baseStage) Kind() string  { return b.spec.Kind }
func (b baseStage) Input() string { return b.spec.Input }

// buildStage constructs the concrete stage for a validated spec.
func buildStage(s StageSpec) (Stage, error) {
	base := baseStage{spec: s}
	switch s.Kind {
	case KindFilter:
		return filterStage{base}, nil
	case KindCategorize:
		return categorizeStage{base}, nil
	case KindResolve:
		return resolveStage{base}, nil
	case KindImpute:
		return imputeStage{base}, nil
	case KindJoin:
		return joinStage{base}, nil
	case KindSort:
		return sortStage{base}, nil
	case KindMax:
		return maxStage{base}, nil
	case KindCount:
		return countStage{base}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown kind %q", s.Kind)
}

// render turns a record into the operator's item text: a single field's
// value, or the full serialized record when no field is selected.
func render(r dataset.Record, field string) string {
	if field == "" {
		return r.String()
	}
	v, _ := r.Get(field)
	return v
}

func renderAll(in []dataset.Record, field string) []string {
	out := make([]string, len(in))
	for i, r := range in {
		out[i] = render(r, field)
	}
	return out
}

func entities(in []dataset.Record, field string) []core.Entity {
	out := make([]core.Entity, len(in))
	for i, r := range in {
		out[i] = core.Entity{ID: r.ID, Text: render(r, field)}
	}
	return out
}

type filterStage struct{ baseStage }

// filter runs the predicate over one table (or chunk) and returns the
// surviving records plus the model samples spent.
func (s filterStage) filter(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, int, error) {
	res, err := env.Engine.Filter(ctx, core.FilterRequest{
		Items:     renderAll(in, s.spec.Field),
		Predicate: s.spec.Predicate,
		Strategy:  core.FilterStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, 0, err
	}
	var out []dataset.Record
	for i, keep := range res.Keep {
		if keep {
			out = append(out, in[i])
		}
	}
	return out, res.Asks, nil
}

// filterDetail is the one report string for a filter's work, shared by
// the table path, the streaming path, and the adaptive segment runner so
// the three never drift apart.
func filterDetail(kept, seen, asks int) string {
	return fmt.Sprintf("kept %d/%d (%d asks)", kept, seen, asks)
}

// detailSkippedEmpty marks a stage that saw no input records.
const detailSkippedEmpty = "skipped: empty input"

func (s filterStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	out, asks, err := s.filter(ctx, env, in)
	if err != nil {
		return nil, err
	}
	env.detail(s.Name(), filterDetail(len(out), len(in), asks))
	return out, nil
}

// CanStream implements Streamer: every filter policy decides per item.
func (s filterStage) CanStream() bool { return true }

func (s filterStage) RunStream(ctx context.Context, env *Env, in <-chan []dataset.Record, emit func([]dataset.Record) error) (int, error) {
	var kept, asks int
	consumed, err := runChunked(ctx, env, in, emit, func(ctx context.Context, chunk []dataset.Record) ([]dataset.Record, error) {
		out, a, err := s.filter(ctx, env, chunk)
		if err != nil {
			return nil, err
		}
		kept += len(out)
		asks += a
		return out, nil
	})
	if err != nil {
		return consumed, err
	}
	if consumed > 0 {
		env.detail(s.Name(), filterDetail(kept, consumed, asks))
	}
	return consumed, nil
}

type categorizeStage struct{ baseStage }

// categorize assigns one table (or chunk) and returns the annotated
// records plus the category count the operator reported.
func (s categorizeStage) categorize(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, int, error) {
	res, err := env.Engine.Categorize(ctx, core.CategorizeRequest{
		Items:      renderAll(in, s.spec.Field),
		Categories: s.spec.Categories,
		Strategy:   core.CategorizeStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, 0, err
	}
	field := s.spec.OutField
	if field == "" {
		field = "category"
	}
	out := make([]dataset.Record, len(in))
	for i, r := range in {
		out[i] = r.Clone()
		out[i].Set(field, res.Assignments[i])
	}
	return out, len(res.Categories), nil
}

func (s categorizeStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	out, categories, err := s.categorize(ctx, env, in)
	if err != nil {
		return nil, err
	}
	env.detail(s.Name(), fmt.Sprintf("%d categories", categories))
	return out, nil
}

// CanStream implements Streamer: direct assignment against a closed
// category set is per-record; two-phase discovers the set from the whole
// table, so chunk membership would change it.
func (s categorizeStage) CanStream() bool {
	return s.spec.Strategy != string(core.CategorizeTwoPhase)
}

func (s categorizeStage) RunStream(ctx context.Context, env *Env, in <-chan []dataset.Record, emit func([]dataset.Record) error) (int, error) {
	categories := 0
	consumed, err := runChunked(ctx, env, in, emit, func(ctx context.Context, chunk []dataset.Record) ([]dataset.Record, error) {
		out, c, err := s.categorize(ctx, env, chunk)
		if err != nil {
			return nil, err
		}
		categories = c
		return out, nil
	})
	if err != nil {
		return consumed, err
	}
	if consumed > 0 {
		env.detail(s.Name(), fmt.Sprintf("%d categories", categories))
	}
	return consumed, nil
}

// resolveStage deduplicates the table: records the engine judges to refer
// to one entity collapse to a single representative — deterministically
// the member with the lexicographically smallest ID — preserving input
// order.
type resolveStage struct{ baseStage }

func (s resolveStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	seen := make(map[string]bool, len(in))
	for _, r := range in {
		if seen[r.ID] {
			return nil, fmt.Errorf("stage %q: duplicate record ID %q", s.Name(), r.ID)
		}
		seen[r.ID] = true
	}
	res, err := env.Engine.Dedupe(ctx, core.DedupeRequest{
		Records:       entities(in, s.spec.Field),
		Strategy:      core.DedupeStrategy(s.spec.Strategy),
		BlockDistance: s.spec.BlockDistance,
	})
	if err != nil {
		return nil, err
	}
	keep := make(map[string]bool, len(res.Groups))
	for _, g := range res.Groups {
		rep := g[0]
		for _, id := range g[1:] {
			if id < rep {
				rep = id
			}
		}
		keep[rep] = true
	}
	var out []dataset.Record
	for _, r := range in {
		if keep[r.ID] {
			out = append(out, r)
		}
	}
	env.detail(s.Name(), fmt.Sprintf("%d records -> %d entities (%d comparisons)", len(in), len(out), res.LLMComparisons))
	return out, nil
}

type imputeStage struct{ baseStage }

func (s imputeStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	side := s.spec.Side
	if side == "" {
		side = "train"
	}
	train := env.Tables[side]
	if len(train) == 0 {
		return nil, fmt.Errorf("stage %q: side table %q is empty or missing", s.Name(), side)
	}
	strategy := s.spec.Strategy
	note := ""
	if strategy == "auto" {
		// Per-stage planning under the whole-pipeline budget: profile the
		// impute strategies on held-out training records and pick under
		// whatever dollar headroom the shared budget still has. An
		// exhausted cap must stay a cap — PlanStrategies reads
		// maxDollars <= 0 as unlimited, so clamp to the smallest positive
		// budget instead: only free strategies fit, everything else falls
		// through to the cheapest-overall rule.
		maxDollars := 0.0
		if rem, capped := env.Budget.RemainingDollars(); capped {
			maxDollars = rem
			if maxDollars <= 0 {
				maxDollars = math.SmallestNonzeroFloat64
			}
		}
		holdout := len(train) / 4
		if holdout < 1 {
			holdout = 1
		}
		if holdout >= len(train) {
			return nil, fmt.Errorf("stage %q: %d training records are too few to plan over", s.Name(), len(train))
		}
		target := s.spec.TargetAccuracy
		if target == 0 {
			target = 0.8
		}
		plan, err := env.Engine.PlanImpute(ctx, train, s.spec.TargetField,
			[]core.ImputeStrategy{core.ImputeKNN, core.ImputeLLM, core.ImputeHybrid},
			holdout, s.spec.Examples, target, maxDollars, len(in))
		if err != nil {
			return nil, fmt.Errorf("stage %q: planning: %w", s.Name(), err)
		}
		strategy = plan.Chosen
		note = fmt.Sprintf("; planner chose %q (%s)", plan.Chosen, plan.Reason)
	}
	out, llmCalls, knnDecided, err := s.impute(ctx, env, in, train, strategy)
	if err != nil {
		return nil, err
	}
	env.detail(s.Name(), fmt.Sprintf("%d by LLM, %d by k-NN%s", llmCalls, knnDecided, note))
	return out, nil
}

// impute fills the target field for one table (or chunk) of query
// records against the resolved training table.
func (s imputeStage) impute(ctx context.Context, env *Env, in, train []dataset.Record, strategy string) ([]dataset.Record, int, int, error) {
	res, err := env.Engine.Impute(ctx, core.ImputeRequest{
		Train:       train,
		Queries:     in,
		TargetField: s.spec.TargetField,
		Strategy:    core.ImputeStrategy(strategy),
		Neighbors:   s.spec.Neighbors,
		Examples:    s.spec.Examples,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	out := make([]dataset.Record, len(in))
	for i, r := range in {
		out[i] = r.Clone()
		out[i].Set(s.spec.TargetField, res.Values[i])
	}
	return out, res.LLMCalls, res.KNNDecided, nil
}

// CanStream implements Streamer: a fixed strategy answers per query
// record from the static training table. Strategy "auto" is a barrier —
// the planner's projected costs scale with the query-table size, so it
// must see the whole table (the same reason it blocks filter pushdown).
func (s imputeStage) CanStream() bool { return s.spec.Strategy != "auto" }

func (s imputeStage) RunStream(ctx context.Context, env *Env, in <-chan []dataset.Record, emit func([]dataset.Record) error) (int, error) {
	side := s.spec.Side
	if side == "" {
		side = "train"
	}
	train := env.Tables[side]
	if len(train) == 0 {
		return 0, fmt.Errorf("stage %q: side table %q is empty or missing", s.Name(), side)
	}
	var llmCalls, knnDecided int
	consumed, err := runChunked(ctx, env, in, emit, func(ctx context.Context, chunk []dataset.Record) ([]dataset.Record, error) {
		out, llm, knn, err := s.impute(ctx, env, chunk, train, s.spec.Strategy)
		if err != nil {
			return nil, err
		}
		llmCalls += llm
		knnDecided += knn
		return out, nil
	})
	if err != nil {
		return consumed, err
	}
	if consumed > 0 {
		env.detail(s.Name(), fmt.Sprintf("%d by LLM, %d by k-NN", llmCalls, knnDecided))
	}
	return consumed, nil
}

// joinStage fuzzy-joins the input table (left) against a static side
// table (right): the output holds one record per matched pair — the left
// record annotated with the matching right ID.
type joinStage struct{ baseStage }

// join matches one table (or chunk) of left records against the resolved
// right side and returns annotated matches plus the comparison stats.
// Output rows are ordered by the left record's input position (then
// right ID) — not by the engine's global LeftID sort — so a chunked run
// concatenates to exactly the whole-table result.
func (s joinStage) join(ctx context.Context, env *Env, in, side []dataset.Record) ([]dataset.Record, core.JoinResult, error) {
	res, err := env.Engine.Join(ctx, core.JoinRequest{
		Left:              entities(in, s.spec.Field),
		Right:             entities(side, s.spec.Field),
		Strategy:          core.JoinStrategy(s.spec.Strategy),
		CandidateDistance: s.spec.BlockDistance,
	})
	if err != nil {
		return nil, core.JoinResult{}, err
	}
	byID := make(map[string]dataset.Record, len(in))
	pos := make(map[string]int, len(in))
	for i, r := range in {
		byID[r.ID] = r
		pos[r.ID] = i
	}
	field := s.spec.OutField
	if field == "" {
		field = "match"
	}
	matches := append([]core.JoinPair(nil), res.Matches...)
	sort.Slice(matches, func(i, j int) bool {
		if pos[matches[i].LeftID] != pos[matches[j].LeftID] {
			return pos[matches[i].LeftID] < pos[matches[j].LeftID]
		}
		return matches[i].RightID < matches[j].RightID
	})
	out := make([]dataset.Record, 0, len(matches))
	for _, m := range matches {
		r := byID[m.LeftID].Clone()
		r.Set(field, m.RightID)
		out = append(out, r)
	}
	return out, res, nil
}

func (s joinStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	side := env.Tables[s.spec.Side]
	if len(side) == 0 {
		return nil, fmt.Errorf("stage %q: side table %q is empty or missing", s.Name(), s.spec.Side)
	}
	out, res, err := s.join(ctx, env, in, side)
	if err != nil {
		return nil, err
	}
	env.detail(s.Name(), fmt.Sprintf("%d matches (%d comparisons, %d skipped by closure, %d by distance)",
		len(res.Matches), res.LLMComparisons, res.SkippedByTransitivity, res.SkippedByDistance))
	return out, nil
}

// CanStream implements Streamer: nested-loop matches each left record
// against the static right side independently. The transitive strategy
// reuses closure evidence across left records, so chunking would change
// which comparisons it skips.
func (s joinStage) CanStream() bool {
	return s.spec.Strategy == string(core.JoinNestedLoop)
}

func (s joinStage) RunStream(ctx context.Context, env *Env, in <-chan []dataset.Record, emit func([]dataset.Record) error) (int, error) {
	side := env.Tables[s.spec.Side]
	if len(side) == 0 {
		return 0, fmt.Errorf("stage %q: side table %q is empty or missing", s.Name(), s.spec.Side)
	}
	var matches, comparisons, byClosure, byDistance int
	consumed, err := runChunked(ctx, env, in, emit, func(ctx context.Context, chunk []dataset.Record) ([]dataset.Record, error) {
		out, res, err := s.join(ctx, env, chunk, side)
		if err != nil {
			return nil, err
		}
		matches += len(res.Matches)
		comparisons += res.LLMComparisons
		byClosure += res.SkippedByTransitivity
		byDistance += res.SkippedByDistance
		return out, nil
	})
	if err != nil {
		return consumed, err
	}
	if consumed > 0 {
		env.detail(s.Name(), fmt.Sprintf("%d matches (%d comparisons, %d skipped by closure, %d by distance)",
			matches, comparisons, byClosure, byDistance))
	}
	return consumed, nil
}

type sortStage struct{ baseStage }

func (s sortStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	byText := make(map[string]int, len(in))
	items := renderAll(in, s.spec.Field)
	for i, it := range items {
		if _, dup := byText[it]; dup {
			return nil, fmt.Errorf("stage %q: records %q and %q render identically; sort needs distinct items",
				s.Name(), in[byText[it]].ID, in[i].ID)
		}
		byText[it] = i
	}
	res, err := env.Engine.Sort(ctx, core.SortRequest{
		Items:     items,
		Criterion: s.spec.Criterion,
		Strategy:  core.SortStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	out := make([]dataset.Record, 0, len(in))
	placed := make([]bool, len(in))
	for _, it := range res.Ranked {
		i := byText[it]
		out = append(out, in[i])
		placed[i] = true
	}
	// Items a coarse strategy omitted keep their input order at the tail.
	for i, r := range in {
		if !placed[i] {
			out = append(out, r)
		}
	}
	env.detail(s.Name(), fmt.Sprintf("ranked %d (missing %d, hallucinated %d)", len(res.Ranked), res.Missing, res.Hallucinated))
	return out, nil
}

// maxStage passes the table through and records the winning item as the
// stage's scalar output.
type maxStage struct{ baseStage }

func (s maxStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	res, err := env.Engine.Max(ctx, core.MaxRequest{
		Items:     renderAll(in, s.spec.Field),
		Criterion: s.spec.Criterion,
		Strategy:  core.MaxStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	env.setScalar(s.Name(), res.Item)
	env.detail(s.Name(), fmt.Sprintf("%d finalists", len(res.Finalists)))
	return in, nil
}

// countStage passes the table through and records the estimated count as
// the stage's scalar output.
type countStage struct{ baseStage }

func (s countStage) Run(ctx context.Context, env *Env, in []dataset.Record) ([]dataset.Record, error) {
	res, err := env.Engine.Count(ctx, core.CountRequest{
		Items:     renderAll(in, s.spec.Field),
		Predicate: s.spec.Predicate,
		Strategy:  core.CountStrategy(s.spec.Strategy),
	})
	if err != nil {
		return nil, err
	}
	env.setScalar(s.Name(), strconv.Itoa(res.Count))
	env.detail(s.Name(), fmt.Sprintf("%d of %d (%.0f%%)", res.Count, len(in), res.Fraction*100))
	return in, nil
}

// sortedKeys returns map keys in sorted order (deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
