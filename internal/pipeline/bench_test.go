package pipeline

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/llm/sim"
)

// benchSpec is a small filter→dedupe→impute chain in the pessimal user
// order, the shape the optimizer rewrites.
func benchSpec() Spec {
	return Spec{Stages: []StageSpec{
		{Name: "entities", Kind: KindResolve, Input: "source",
			Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "cheap", Kind: KindFilter, Field: "type",
			Predicate: "the restaurant serves seafood, steak, or pizza", Selectivity: 0.3},
		{Name: "city", Kind: KindImpute, TargetField: "city",
			Side: "train", Strategy: "hybrid", Neighbors: 3},
	}}
}

func benchTables(b *testing.B) map[string][]dataset.Record {
	b.Helper()
	ds := dataset.GenerateRestaurants(40, 12, 7)
	source := make([]dataset.Record, len(ds.Test))
	for i, r := range ds.Test {
		source[i] = r.WithoutField(ds.TargetField)
	}
	return map[string][]dataset.Record{"source": source, "train": ds.Train}
}

func benchRun(b *testing.B, spec Spec, cfg ExecConfig) {
	b.Helper()
	p, err := Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	tables := benchTables(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background(), cfg, tables); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineNaive is the seed behaviour: user stage order, one
// fresh engine per stage, whole-table handoff (RunSequential).
func BenchmarkPipelineNaive(b *testing.B) {
	p, err := Compile(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	tables := benchTables(b)
	cfg := SequentialConfig{Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunSequential(context.Background(), cfg, tables); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineOptimized runs the optimizer's rewritten plan on one
// shared engine with batching and record streaming (the default).
func BenchmarkPipelineOptimized(b *testing.B) {
	spec, _, err := Optimize(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, spec, ExecConfig{
		Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16, Batch: 8,
	})
}

// BenchmarkPipelineAdaptive runs the optimized plan under the adaptive
// runtime, which may re-order filter segments mid-run. The delta against
// BenchmarkPipelineOptimized is the adaptive machinery's overhead (or
// win) when the static plan was already good.
func BenchmarkPipelineAdaptive(b *testing.B) {
	spec, _, err := Optimize(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	benchRun(b, spec, ExecConfig{
		Model: sim.NewNamed("sim-gpt-3.5-turbo"), Parallelism: 16, Batch: 8, Adaptive: true,
	})
}

// BenchmarkPipelineOptimize measures the optimizer itself (pure plan
// rewriting, no LLM work).
func BenchmarkPipelineOptimize(b *testing.B) {
	spec := benchSpec()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimize(spec); err != nil {
			b.Fatal(err)
		}
	}
}
