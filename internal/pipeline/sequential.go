package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/workflow"
)

// SequentialConfig parameterises RunSequential. It holds only what the
// naive runner honours: no shared layer, registry, batching, or chunking.
type SequentialConfig struct {
	// Model answers every unit task.
	Model llm.Model
	// Parallelism bounds concurrent LLM calls per operator (default 8).
	Parallelism int
}

// RunSequential is naive sequential operator invocation, the reference
// the streaming executor is measured and pinned against: stages run one
// at a time in spec order, each over its whole input table on a fresh
// engine with only the private execution layer each operator invocation
// builds (identical asks inside one invocation are answered once, under
// any schedule). No work is shared between stages, so the run pays every
// call a user calling the operators one by one would. At temperature 0 its tables, scalars,
// and details are byte-identical to Run's.
func (p *Pipeline) RunSequential(ctx context.Context, cfg SequentialConfig, tables map[string][]dataset.Record) (*Result, error) {
	source, ok := tables["source"]
	if !ok {
		return nil, fmt.Errorf("pipeline: tables lack %q", "source")
	}
	budget, attr := workflow.Unlimited(), workflow.NewAttribution()
	opts := engineOptions(budget, attr, cfg.Parallelism, nil)
	state := newRunState()
	outs := map[string]*streamOut{"source": {table: source}}
	for i, st := range p.stages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		recs := outs[st.Input()].table
		out := &streamOut{consumed: len(recs)}
		outs[st.Name()] = out
		if len(recs) == 0 {
			state.skipEmpty(st)
			continue
		}
		env := &Env{Engine: core.New(cfg.Model, opts...), Budget: budget, Tables: tables, run: state}
		if spec := p.specs[i]; sideStage(p.specs, spec) >= 0 {
			env.Tables = overlaySide(tables, spec.Side, outs[spec.Side].table)
		}
		start := time.Now()
		table, err := st.Run(workflow.TagStage(ctx, st.Name()), env, recs)
		if err != nil {
			return nil, fmt.Errorf("stage %q: %w", st.Name(), err)
		}
		attr.ObserveTiming(st.Name(), workflow.StageTiming{Service: time.Since(start), Chunks: 1, Records: len(recs)})
		out.table = table
	}
	return p.report(attr, state, outs), nil
}
