package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/workflow"
)

// ExecLayerRow is one configuration's result on the repeated-workload
// execution-layer study.
type ExecLayerRow struct {
	// Config labels the execution configuration.
	Config string
	// UpstreamCalls is how many completions actually reached the model.
	UpstreamCalls int
	// UpstreamTokens is the total token volume of those calls.
	UpstreamTokens int
	// CacheHits and Coalesced describe the shared layer's work (zero for
	// the isolated baseline).
	CacheHits, Coalesced int
	// Reduction is baseline upstream calls divided by this row's.
	Reduction float64
}

// ExecLayerConfig parameterises the execution-layer study.
type ExecLayerConfig struct {
	// Model is the simulated model name.
	Model string
	// Items is the workload width (records per operator).
	Items int
	// Repeats is how many times the whole operator mix re-runs — the
	// "dashboard refresh" scenario where a production service answers the
	// same declarative queries again and again.
	Repeats int
	// Batch is the unit tasks per envelope for the batched configuration.
	Batch int
	// Parallelism bounds concurrent calls.
	Parallelism int
}

// DefaultExecLayerConfig returns the study's stock shape.
func DefaultExecLayerConfig() ExecLayerConfig {
	return ExecLayerConfig{Model: "sim-gpt-3.5-turbo", Items: 60, Repeats: 3, Batch: 8, Parallelism: 16}
}

// execWorkload runs the operator mix (per-item filter, direct categorize,
// LLM imputation) once against the engine. The mix deliberately overlaps:
// filter and categorize see the same items, so a shared cache also reuses
// nothing *between* them (distinct prompts) — the reuse comes from
// repeats, which is the honest production scenario.
func execWorkload(ctx context.Context, engine *core.Engine, items []string, imp *dataset.ImputationDataset) error {
	if _, err := engine.Filter(ctx, core.FilterRequest{
		Items:     items,
		Predicate: "the flavor contains chocolate",
		Strategy:  core.FilterPerItem,
	}); err != nil {
		return fmt.Errorf("filter: %w", err)
	}
	if _, err := engine.Categorize(ctx, core.CategorizeRequest{
		Items:      items,
		Categories: []string{"chocolate", "fruit", "nut", "other"},
		Strategy:   core.CategorizeDirect,
	}); err != nil {
		return fmt.Errorf("categorize: %w", err)
	}
	if _, err := engine.Impute(ctx, core.ImputeRequest{
		Train:       imp.Train,
		Queries:     imp.Test,
		TargetField: imp.TargetField,
		Strategy:    core.ImputeLLM,
	}); err != nil {
		return fmt.Errorf("impute: %w", err)
	}
	return nil
}

// ExecLayerStudy measures what the shared execution layer buys on a
// repeated workload. Three configurations run the identical operator mix
// Repeats times:
//
//   - isolated: no shared layer — every operator invocation gets a
//     private one, so repeats across invocations pay full price;
//   - shared: one ExecLayer (sharded cache + coalescer) across all
//     engines and repeats;
//   - shared+batch: the same layer plus unit-task batching.
//
// Upstream calls are counted below every wrapper, at the simulator
// boundary, so the numbers are what a vendor would actually bill.
func ExecLayerStudy(ctx context.Context, cfg ExecLayerConfig) ([]ExecLayerRow, error) {
	if cfg.Items < 2 {
		return nil, fmt.Errorf("exec-layer study: need at least 2 items, got %d", cfg.Items)
	}
	if cfg.Repeats < 1 {
		return nil, fmt.Errorf("exec-layer study: need at least 1 repeat, got %d", cfg.Repeats)
	}
	flavors := dataset.FlavorNames()
	items := make([]string, cfg.Items)
	for i := range items {
		items[i] = flavors[i%len(flavors)]
	}
	imp := dataset.GenerateRestaurants(120, cfg.Items/2, 11)

	type config struct {
		label string
		layer *workflow.ExecLayer
		batch int
	}
	configs := []config{
		{"isolated caches (seed)", nil, 0},
		{"shared layer", workflow.NewExecLayer(), 0},
		{fmt.Sprintf("shared layer + batch %d", cfg.Batch), workflow.NewExecLayer(), cfg.Batch},
	}
	rows := make([]ExecLayerRow, 0, len(configs))
	for _, c := range configs {
		upstream := llm.NewCounting(sim.NewNamed(cfg.Model))
		opts := []core.Option{core.WithParallelism(cfg.Parallelism)}
		if c.layer != nil {
			opts = append(opts, core.WithExecutionLayer(c.layer))
		}
		if c.batch > 1 {
			opts = append(opts, core.WithBatching(c.batch))
		}
		for r := 0; r < cfg.Repeats; r++ {
			// A fresh engine per repeat mirrors independent requests
			// hitting a service; only the layer persists.
			engine := core.New(upstream, opts...)
			if err := execWorkload(ctx, engine, items, imp); err != nil {
				return nil, fmt.Errorf("exec study %q repeat %d: %w", c.label, r, err)
			}
		}
		total := upstream.Total()
		row := ExecLayerRow{
			Config:         c.label,
			UpstreamCalls:  total.Calls,
			UpstreamTokens: total.Total(),
		}
		if c.layer != nil {
			st := c.layer.Stats()
			row.CacheHits, row.Coalesced = st.CacheHits, st.Coalesced
		}
		rows = append(rows, row)
	}
	base := float64(rows[0].UpstreamCalls)
	for i := range rows {
		rows[i].Reduction = base / float64(rows[i].UpstreamCalls)
	}
	return rows, nil
}

// FormatExecLayerStudy renders rows as a text table.
func FormatExecLayerStudy(rows []ExecLayerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s %12s %10s %10s %10s\n",
		"Configuration", "# Calls", "# Tokens", "Hits", "Coalesced", "Reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %10d %12d %10d %10d %9.1fx\n",
			r.Config, r.UpstreamCalls, r.UpstreamTokens, r.CacheHits, r.Coalesced, r.Reduction)
	}
	return b.String()
}
