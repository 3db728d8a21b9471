// Package experiments reproduces every table of the paper's evaluation
// (there are four tables and no figures) plus this repository's own
// studies: the ablations A1–A9, the shared-execution-layer study, the
// vector-index benchmark, and the pipeline study comparing naive
// sequential operator invocation against the optimized streaming DAG —
// with hinted, probed, and adaptively refined selectivities. Each
// experiment returns structured rows and can render the paper-style
// text table; cmd/declctl and the root benchmark suite both drive this
// package.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm/sim"
	"repro/internal/metrics"
)

// Table1Row is one strategy's result on the flavour-sorting case study.
type Table1Row struct {
	Method           string
	KendallTau       float64
	PromptTokens     int
	CompletionTokens int
}

// Table1Config parameterises the flavour-sorting experiment.
type Table1Config struct {
	// Model is the simulated model name (paper: gpt-3.5-turbo).
	Model string
	// Parallelism bounds concurrent calls.
	Parallelism int
}

// DefaultTable1Config mirrors the paper's setup.
func DefaultTable1Config() Table1Config {
	return Table1Config{Model: "sim-gpt-3.5-turbo", Parallelism: 16}
}

// Table1 runs the three Table 1 strategies over the 20-flavour benchmark
// and reports Kendall Tau-b against the ground truth plus token costs.
func Table1(ctx context.Context, cfg Table1Config) ([]Table1Row, error) {
	engine := core.New(sim.NewNamed(cfg.Model), core.WithParallelism(cfg.Parallelism))
	items := dataset.FlavorNames()
	gold := dataset.FlavorGroundTruth()
	const criterion = "how chocolatey they are"

	specs := []struct {
		label    string
		strategy core.SortStrategy
	}{
		{"Sorting in one prompt", core.SortOnePrompt},
		{"Coarse-grained ratings", core.SortRating},
		{"Fine-grained comparisons", core.SortPairwise},
	}
	rows := make([]Table1Row, 0, len(specs))
	for _, spec := range specs {
		res, err := engine.Sort(ctx, core.SortRequest{
			Items:     items,
			Criterion: criterion,
			Strategy:  spec.strategy,
		})
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", spec.label, err)
		}
		ranked := fillMissingRandomly(items, res.Ranked, 1)
		tau, err := metrics.KendallTauRanks(gold, ranked)
		if err != nil {
			return nil, fmt.Errorf("table1 %s tau: %w", spec.label, err)
		}
		rows = append(rows, Table1Row{
			Method:           spec.label,
			KendallTau:       tau,
			PromptTokens:     res.Usage.PromptTokens,
			CompletionTokens: res.Usage.CompletionTokens,
		})
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %12s %15s %18s\n", "Method", "Kendall Tau-b", "# Prompt Tokens", "# Completion Tokens")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %12.3f %15d %18d\n", r.Method, r.KendallTau, r.PromptTokens, r.CompletionTokens)
	}
	return b.String()
}

// Table2Row is one (trial, method) cell of the 100-word sorting study.
type Table2Row struct {
	Trial        int
	Method       string
	Score        float64
	Missing      int
	Hallucinated int
}

// Table2Config parameterises the alphabetical-sorting experiment.
type Table2Config struct {
	// Model is the simulated model name (paper: claude-2).
	Model string
	// Words per trial (paper: 100).
	Words int
	// Trials (paper: 3).
	Trials int
	// Parallelism bounds concurrent calls.
	Parallelism int
}

// DefaultTable2Config mirrors the paper's setup.
func DefaultTable2Config() Table2Config {
	return Table2Config{Model: "sim-claude-2", Words: 100, Trials: 3, Parallelism: 16}
}

// Table2 runs the one-prompt baseline and the sort-then-insert hybrid
// over Trials random word lists. As in the paper, the baseline's missing
// words are inserted at random locations before scoring.
func Table2(ctx context.Context, cfg Table2Config) ([]Table2Row, error) {
	engine := core.New(sim.NewNamed(cfg.Model), core.WithParallelism(cfg.Parallelism))
	var rows []Table2Row
	for trial := 1; trial <= cfg.Trials; trial++ {
		words := dataset.RandomWords(cfg.Words, int64(trial))
		truth := append([]string(nil), words...)
		sort.Strings(truth)

		base, err := engine.Sort(ctx, core.SortRequest{
			Items:     words,
			Criterion: "alphabetical order",
			Strategy:  core.SortOnePrompt,
		})
		if err != nil {
			return nil, fmt.Errorf("table2 trial %d baseline: %w", trial, err)
		}
		baseRanked := fillMissingRandomly(words, base.Ranked, int64(trial))
		baseTau, err := metrics.KendallTauRanks(truth, baseRanked)
		if err != nil {
			return nil, fmt.Errorf("table2 trial %d baseline tau: %w", trial, err)
		}
		rows = append(rows, Table2Row{
			Trial:        trial,
			Method:       "Sorting in one prompt",
			Score:        baseTau,
			Missing:      base.Missing,
			Hallucinated: base.Hallucinated,
		})

		hybrid, err := engine.Sort(ctx, core.SortRequest{
			Items:     words,
			Criterion: "alphabetical order",
			Strategy:  core.SortHybridInsert,
		})
		if err != nil {
			return nil, fmt.Errorf("table2 trial %d hybrid: %w", trial, err)
		}
		hybridTau, err := metrics.KendallTauRanks(truth, hybrid.Ranked)
		if err != nil {
			return nil, fmt.Errorf("table2 trial %d hybrid tau: %w", trial, err)
		}
		rows = append(rows, Table2Row{
			Trial:        trial,
			Method:       "Sort then insert",
			Score:        hybridTau,
			Missing:      hybrid.Missing,
			Hallucinated: 0, // hallucinations are dropped before insertion
		})
	}
	return rows, nil
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-24s %8s %10s %14s\n", "Trial", "Method", "Score", "# Missing", "# Hallucinated")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-24s %8.3f %10d %14d\n", r.Trial, r.Method, r.Score, r.Missing, r.Hallucinated)
	}
	return b.String()
}

// fillMissingRandomly inserts the input items absent from ranked at
// random positions (the paper's protocol for scoring incomplete sorts).
func fillMissingRandomly(input, ranked []string, seed int64) []string {
	have := make(map[string]bool, len(ranked))
	for _, it := range ranked {
		have[it] = true
	}
	rng := rand.New(rand.NewSource(seed))
	out := append([]string(nil), ranked...)
	for _, it := range input {
		if !have[it] {
			pos := rng.Intn(len(out) + 1)
			out = append(out[:pos], append([]string{it}, out[pos:]...)...)
		}
	}
	return out
}

// Table3Row is one neighbour setting's result on the citation-matching
// study.
type Table3Row struct {
	Neighbors             int
	F1, Recall, Precision float64
	LLMComparisons        int
}

// Table3Config parameterises the entity-resolution experiment.
type Table3Config struct {
	// Model is the simulated model name (paper: gpt-3.5-turbo).
	Model string
	// Citations configures the synthetic corpus (paper slice: 5742
	// labelled pairs).
	Citations dataset.CitationConfig
	// NeighborSettings lists the k values (paper: 0, 1, 2).
	NeighborSettings []int
	// Parallelism bounds concurrent calls.
	Parallelism int
}

// DefaultTable3Config mirrors the paper's setup.
func DefaultTable3Config() Table3Config {
	return Table3Config{
		Model:            "sim-gpt-3.5-turbo",
		Citations:        dataset.DefaultCitationConfig(),
		NeighborSettings: []int{0, 1, 2},
		Parallelism:      16,
	}
}

// Table3 runs the entity-resolution study: the k=0 baseline answers each
// labelled pair directly; k>0 augments with nearest neighbours and flips
// "no" answers that transitivity contradicts.
func Table3(ctx context.Context, cfg Table3Config) ([]Table3Row, error) {
	corpus := dataset.GenerateCitations(cfg.Citations)
	ents := make([]core.Entity, len(corpus.Records))
	for i, c := range corpus.Records {
		ents[i] = core.Entity{ID: c.ID, Text: c.Text()}
	}
	pairs := make([][2]int, len(corpus.Pairs))
	gold := make([]bool, len(corpus.Pairs))
	for i, p := range corpus.Pairs {
		pairs[i] = [2]int{p.A, p.B}
		gold[i] = p.Match
	}
	engine := core.New(sim.NewNamed(cfg.Model), core.WithParallelism(cfg.Parallelism))
	rows := make([]Table3Row, 0, len(cfg.NeighborSettings))
	for _, k := range cfg.NeighborSettings {
		req := core.PairsRequest{Corpus: ents, Pairs: pairs, Strategy: core.ResolveDirect}
		if k > 0 {
			req.Strategy = core.ResolveTransitive
			req.Neighbors = k
		}
		res, err := engine.ResolvePairs(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("table3 k=%d: %w", k, err)
		}
		var c metrics.Confusion
		for i, m := range res.Match {
			c.Observe(m, gold[i])
		}
		rows = append(rows, Table3Row{
			Neighbors:      k,
			F1:             c.F1(),
			Recall:         c.Recall(),
			Precision:      c.Precision(),
			LLMComparisons: res.LLMComparisons,
		})
	}
	return rows, nil
}

// FormatTable3 renders rows in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %8s %10s %14s\n", "Nearest Neighbors", "F1", "Recall", "Precision", "# Comparisons")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Neighbors)
		if r.Neighbors == 0 {
			label = "0 (Baseline)"
		}
		fmt.Fprintf(&b, "%-18s %8.3f %8.3f %10.3f %14d\n", label, r.F1, r.Recall, r.Precision, r.LLMComparisons)
	}
	return b.String()
}

// Table4Row is one strategy's result on the imputation study across both
// datasets.
type Table4Row struct {
	Strategy            string
	RestAcc, BuyAcc     float64
	RestTokens          int
	BuyTokens           int
	RestCalls, BuyCalls int
}

// Table4Config parameterises the imputation experiment.
type Table4Config struct {
	// Model is the simulated model name (paper: claude).
	Model string
	// TrainN is the ground-truth pool size per dataset.
	TrainN int
	// RestTestN and BuyTestN are the evaluation slice sizes (paper: 86
	// and 65).
	RestTestN, BuyTestN int
	// Neighbors is k for k-NN (paper: 3).
	Neighbors int
	// Examples is k' for the few-shot variants (paper: 3).
	Examples int
	// Seed drives dataset generation.
	Seed int64
	// Parallelism bounds concurrent calls.
	Parallelism int
}

// DefaultTable4Config mirrors the paper's setup.
func DefaultTable4Config() Table4Config {
	return Table4Config{
		Model:       "sim-claude",
		TrainN:      300,
		RestTestN:   86,
		BuyTestN:    65,
		Neighbors:   3,
		Examples:    3,
		Seed:        11,
		Parallelism: 16,
	}
}

// Table4 runs the five imputation strategies of the paper over the
// Restaurants and Buy datasets. Accuracy is exact match modulo letter
// case; formatting drift beyond casing (the paper's "TomTom" vs
// "Tom Tom") counts as wrong, as in the paper.
func Table4(ctx context.Context, cfg Table4Config) ([]Table4Row, error) {
	rest := dataset.GenerateRestaurants(cfg.TrainN, cfg.RestTestN, cfg.Seed)
	buy := dataset.GenerateBuy(cfg.TrainN, cfg.BuyTestN, cfg.Seed+1)
	engine := core.New(sim.NewNamed(cfg.Model), core.WithParallelism(cfg.Parallelism))

	specs := []struct {
		label    string
		strategy core.ImputeStrategy
		examples int
	}{
		{"Naive k-NN", core.ImputeKNN, 0},
		{"Hybrid (no examples)", core.ImputeHybrid, 0},
		{"LLM-only (no examples)", core.ImputeLLM, 0},
		{fmt.Sprintf("Hybrid (%d examples)", cfg.Examples), core.ImputeHybrid, cfg.Examples},
		{fmt.Sprintf("LLM-only (%d examples)", cfg.Examples), core.ImputeLLM, cfg.Examples},
	}
	run := func(d *dataset.ImputationDataset, strategy core.ImputeStrategy, examples int) (float64, int, int, error) {
		res, err := engine.Impute(ctx, core.ImputeRequest{
			Train:       d.Train,
			Queries:     d.Test,
			TargetField: d.TargetField,
			Strategy:    strategy,
			Neighbors:   cfg.Neighbors,
			Examples:    examples,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		gold := d.Gold()
		correct := 0
		for i, v := range res.Values {
			if strings.EqualFold(strings.TrimSpace(v), strings.TrimSpace(gold[i])) {
				correct++
			}
		}
		return float64(correct) / float64(len(gold)), res.Usage.Total(), res.LLMCalls, nil
	}
	rows := make([]Table4Row, 0, len(specs))
	for _, spec := range specs {
		restAcc, restTok, restCalls, err := run(rest, spec.strategy, spec.examples)
		if err != nil {
			return nil, fmt.Errorf("table4 %s restaurants: %w", spec.label, err)
		}
		buyAcc, buyTok, buyCalls, err := run(buy, spec.strategy, spec.examples)
		if err != nil {
			return nil, fmt.Errorf("table4 %s buy: %w", spec.label, err)
		}
		rows = append(rows, Table4Row{
			Strategy:   spec.label,
			RestAcc:    restAcc,
			BuyAcc:     buyAcc,
			RestTokens: restTok,
			BuyTokens:  buyTok,
			RestCalls:  restCalls,
			BuyCalls:   buyCalls,
		})
	}
	return rows, nil
}

// FormatTable4 renders rows in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %12s %12s\n", "Strategy", "Acc Rest.", "Acc Buy", "Tok Rest.", "Tok Buy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %9.2f%% %9.2f%% %12d %12d\n",
			r.Strategy, r.RestAcc*100, r.BuyAcc*100, r.RestTokens, r.BuyTokens)
	}
	return b.String()
}
