package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/prompt"
	"repro/internal/quality"
	"repro/internal/token"
)

// ImputeStrategy selects how missing values are filled.
type ImputeStrategy string

// Impute strategies (Section 3.4 of the paper).
const (
	// ImputeKNN imputes from the mode of the k nearest training records'
	// target values — the pure non-LLM proxy. Free.
	ImputeKNN ImputeStrategy = "knn"
	// ImputeLLM asks the model for every record, optionally with few-shot
	// examples drawn from the record's nearest training neighbours.
	ImputeLLM ImputeStrategy = "llm"
	// ImputeHybrid uses the k-NN value when all k neighbours agree and
	// asks the model only for the contested remainder — the paper's
	// hybrid, which matches LLM accuracy at roughly half the cost.
	ImputeHybrid ImputeStrategy = "hybrid"
)

// ImputeRequest asks for a missing attribute of each query record.
type ImputeRequest struct {
	// Train records carry ground-truth target values; they feed k-NN and
	// few-shot examples.
	Train []dataset.Record
	// Queries are the records to impute. Any existing target value is
	// ignored (and never shown to the model).
	Queries []dataset.Record
	// TargetField is the attribute to fill.
	TargetField string
	// Strategy selects the decomposition; default ImputeHybrid.
	Strategy ImputeStrategy
	// Neighbors is k for the k-NN component (default 3).
	Neighbors int
	// Examples is the number of few-shot examples per LLM prompt
	// (default 0: zero-shot).
	Examples int
}

// ImputeResult is the outcome of Impute.
type ImputeResult struct {
	// Values holds one imputed value per query, index-aligned.
	Values []string
	// LLMCalls counts queries that reached the model.
	LLMCalls int
	// KNNDecided counts queries answered by unanimous k-NN (hybrid) or by
	// k-NN mode (knn strategy).
	KNNDecided int
	// Usage is the total token spend.
	Usage token.Usage
}

// Impute fills the target field of every query record.
func (e *Engine) Impute(ctx context.Context, req ImputeRequest) (ImputeResult, error) {
	if len(req.Queries) == 0 {
		return ImputeResult{}, badRequestf("no queries to impute")
	}
	if req.TargetField == "" {
		return ImputeResult{}, badRequestf("missing target field")
	}
	if req.Strategy == "" {
		req.Strategy = ImputeHybrid
	}
	if req.Neighbors == 0 {
		req.Neighbors = 3
	}
	if req.Strategy != ImputeLLM && len(req.Train) == 0 {
		return ImputeResult{}, badRequestf("strategy %q needs training records", req.Strategy)
	}
	if (req.Examples > 0) && len(req.Train) < req.Examples {
		return ImputeResult{}, badRequestf("%d examples requested but only %d training records", req.Examples, len(req.Train))
	}

	// Index training records by their serialization without the target —
	// the same view the model gets, so neighbours reflect queryable
	// evidence only. The corpus is embedded in parallel, or reused outright
	// when an index registry already holds it (e.g. planner profiling runs
	// over the same training set).
	targets := make(map[string]string, len(req.Train))
	trainByID := make(map[string]dataset.Record, len(req.Train))
	trainItems := make([]embed.Item, 0, len(req.Train))
	for _, r := range req.Train {
		v, ok := r.Get(req.TargetField)
		if !ok {
			return ImputeResult{}, badRequestf("training record %q lacks target %q", r.ID, req.TargetField)
		}
		trainItems = append(trainItems, embed.Item{ID: r.ID, Text: r.WithoutField(req.TargetField).String()})
		targets[r.ID] = v
		trainByID[r.ID] = r
	}
	ix := e.index(trainItems)

	// Imputation prompts are homogeneous per-record unit tasks (the knn
	// strategy issues none, so the wrapper is inert there).
	s := e.newBatchedSession()
	res := ImputeResult{Values: make([]string, len(req.Queries))}

	// Each query is serialized and embedded exactly once: one top-k query
	// wide enough for both the k-NN vote and the few-shot example pool.
	kMax := req.Neighbors
	if req.Examples > kMax {
		kMax = req.Examples
	}
	serialized := make([]string, len(req.Queries))
	nnAll := make([][]embed.Neighbor, len(req.Queries))
	for i, q := range req.Queries {
		serialized[i] = q.WithoutField(req.TargetField).String()
		if len(req.Train) > 0 {
			nnAll[i] = ix.Nearest(serialized[i], kMax)
		}
	}

	type knnInfo struct {
		mode      string
		unanimous bool
		neighbors []embed.Neighbor
	}
	knn := make([]knnInfo, len(req.Queries))
	if len(req.Train) > 0 {
		for i := range req.Queries {
			nn := nnAll[i]
			if len(nn) > req.Neighbors {
				nn = nn[:req.Neighbors]
			}
			votes := make(map[string]int)
			order := []string{}
			for _, nb := range nn {
				v := targets[nb.ID]
				if votes[v] == 0 {
					order = append(order, v)
				}
				votes[v]++
			}
			best, bestN := "", 0
			for _, v := range order { // first-seen tie-break: nearest wins
				if votes[v] > bestN {
					best, bestN = v, votes[v]
				}
			}
			knn[i] = knnInfo{
				mode:      best,
				unanimous: len(nn) > 0 && bestN == len(nn),
				neighbors: nn,
			}
		}
	}

	askLLM := func(ctx context.Context, i int) (string, error) {
		var examples []prompt.Example
		if req.Examples > 0 {
			// Few-shot examples: the query's nearest training neighbours,
			// shown with their gold target (the paper's k'-neighbour
			// examples) — a prefix of the single per-query k-NN result.
			nn := nnAll[i]
			if len(nn) > req.Examples {
				nn = nn[:req.Examples]
			}
			for _, nb := range nn {
				examples = append(examples, prompt.Example{
					Input:  trainByID[nb.ID].WithoutField(req.TargetField).String(),
					Output: targets[nb.ID],
				})
			}
		}
		return quality.AskWithRetry(ctx, s.model, prompt.Impute(serialized[i], req.TargetField, examples),
			prompt.ParseValue, e.retries)
	}

	switch req.Strategy {
	case ImputeKNN:
		for i := range req.Queries {
			res.Values[i] = knn[i].mode
		}
		res.KNNDecided = len(req.Queries)
	case ImputeLLM:
		values, err := s.mapIdx(ctx, len(req.Queries), askLLM)
		if err != nil {
			return ImputeResult{}, fmt.Errorf("llm impute: %w", err)
		}
		copy(res.Values, values)
		res.LLMCalls = len(req.Queries)
	case ImputeHybrid:
		var contested []int
		for i := range req.Queries {
			if knn[i].unanimous {
				res.Values[i] = knn[i].mode
				res.KNNDecided++
			} else {
				contested = append(contested, i)
			}
		}
		values, err := workflowMapSubset(ctx, s, contested, askLLM)
		if err != nil {
			return ImputeResult{}, fmt.Errorf("hybrid impute: %w", err)
		}
		for k, i := range contested {
			res.Values[i] = values[k]
		}
		res.LLMCalls = len(contested)
	default:
		return ImputeResult{}, badRequestf("unknown impute strategy %q", req.Strategy)
	}
	res.Usage = s.usage()
	return res, nil
}

// workflowMapSubset fans fn out over an index subset, preserving subset
// order in the result.
func workflowMapSubset(ctx context.Context, s *session, subset []int, fn func(ctx context.Context, i int) (string, error)) ([]string, error) {
	return s.mapIdx(ctx, len(subset), func(ctx context.Context, k int) (string, error) {
		return fn(ctx, subset[k])
	})
}
