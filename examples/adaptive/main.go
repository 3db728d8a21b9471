// Command adaptive demonstrates the adaptive streaming runtime: the same
// pipeline runs once with the static streaming executor and once with
// ExecConfig.Adaptive, and the side-input overlap scenario shows the
// wall-clock difference buffering buys over the sequential reference
// under a deterministic latency model. See examples/adaptive/README.md
// for the walkthrough.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
)

func main() {
	ctx := context.Background()

	// A two-filter chain over the flavours table: hintless, so the static
	// plan keeps the user's order while the adaptive runtime replans from
	// observed keep rates at chunk boundaries.
	spec := pipeline.Spec{
		Source: pipeline.SourceSpec{Dataset: "flavors"},
		Stages: []pipeline.StageSpec{
			{Name: "sweet", Kind: pipeline.KindFilter, Field: "name",
				Predicate: "the flavor is sweet"},
			{Name: "choc", Kind: pipeline.KindFilter, Field: "name",
				Predicate: "it is a chocolatey flavor"},
		},
	}
	tables, err := spec.Source.Tables()
	if err != nil {
		log.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		p, err := pipeline.Compile(spec)
		if err != nil {
			log.Fatal(err)
		}
		counting := llm.NewCounting(sim.NewNamed("sim-gpt-3.5-turbo"))
		res, err := p.Run(ctx, pipeline.ExecConfig{
			Model: counting, Adaptive: adaptive, Parallelism: 8,
		}, tables)
		if err != nil {
			log.Fatal(err)
		}
		label := "static streaming"
		if adaptive {
			label = "adaptive runtime"
		}
		fmt.Printf("== %s ==\n%s\n", label, pipeline.FormatResult(res))
	}

	// The overlap scenario: a slow feed joins against another stage's
	// output. The sequential reference waits for the whole feed; the
	// streaming executor buffers and starts matching the moment the side
	// table lands.
	overlap, err := experiments.OverlapScenario(ctx, 15*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlap scenario: sequential %s vs streaming overlap %s (%d matches, identical: %v)\n",
		overlap.Sequential.Round(time.Millisecond), overlap.Overlap.Round(time.Millisecond),
		overlap.Matches, overlap.Identical)
}
