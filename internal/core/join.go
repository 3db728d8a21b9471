package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/consistency"
	"repro/internal/token"
)

// JoinStrategy selects how a fuzzy join is executed.
type JoinStrategy string

// Join strategies (Wang et al.'s transitivity-sequenced joins, Section
// 3.3).
const (
	// JoinNestedLoop asks the model about every left×right pair.
	JoinNestedLoop JoinStrategy = "nested-loop"
	// JoinTransitive orders candidate pairs by embedding similarity and
	// skips any comparison already implied by the positive transitive
	// closure of earlier answers, with an embedding cutoff discarding
	// hopeless pairs for free.
	JoinTransitive JoinStrategy = "transitive"
)

// JoinRequest asks for the matching pairs between two record sets.
type JoinRequest struct {
	Left, Right []Entity
	// Strategy selects the decomposition; default JoinTransitive.
	Strategy JoinStrategy
	// CandidateDistance is the embedding L2 distance beyond which a pair
	// is not even considered (default 1.1, effectively everything for
	// normalised n-gram embeddings).
	CandidateDistance float64
}

// JoinPair is one matched (left, right) pair in a JoinResult.
type JoinPair struct {
	LeftID, RightID string
}

// JoinResult is the outcome of Join.
type JoinResult struct {
	// Matches lists the matched ID pairs, ordered by left then right ID.
	Matches []JoinPair
	// LLMComparisons counts match questions sent to the model.
	LLMComparisons int
	// SkippedByTransitivity counts pairs decided by closure for free.
	SkippedByTransitivity int
	// SkippedByDistance counts pairs discarded by the embedding cutoff.
	SkippedByDistance int
	// Usage is the total token spend.
	Usage token.Usage
}

// Join fuzzy-joins Left and Right on entity identity.
func (e *Engine) Join(ctx context.Context, req JoinRequest) (JoinResult, error) {
	if len(req.Left) == 0 || len(req.Right) == 0 {
		return JoinResult{}, badRequestf("join needs records on both sides")
	}
	if req.Strategy == "" {
		req.Strategy = JoinTransitive
	}
	if req.CandidateDistance == 0 {
		req.CandidateDistance = 1.1
	}
	ids := make(map[string]bool, len(req.Left)+len(req.Right))
	for _, r := range append(append([]Entity{}, req.Left...), req.Right...) {
		if ids[r.ID] {
			return JoinResult{}, badRequestf("duplicate entity ID %q across join inputs", r.ID)
		}
		ids[r.ID] = true
	}
	s := e.newSession()
	var res JoinResult
	var err error
	switch req.Strategy {
	case JoinNestedLoop:
		res, err = e.joinNestedLoop(ctx, s, req)
	case JoinTransitive:
		res, err = e.joinTransitive(ctx, s, req)
	default:
		return JoinResult{}, badRequestf("unknown join strategy %q", req.Strategy)
	}
	if err != nil {
		return JoinResult{}, err
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		if res.Matches[i].LeftID != res.Matches[j].LeftID {
			return res.Matches[i].LeftID < res.Matches[j].LeftID
		}
		return res.Matches[i].RightID < res.Matches[j].RightID
	})
	res.Usage = s.usage()
	return res, nil
}

func (e *Engine) joinNestedLoop(ctx context.Context, s *session, req JoinRequest) (JoinResult, error) {
	type pair struct{ l, r int }
	var pairs []pair
	for l := range req.Left {
		for r := range req.Right {
			pairs = append(pairs, pair{l, r})
		}
	}
	answers, err := s.mapIdx(ctx, len(pairs), func(ctx context.Context, k int) (string, error) {
		p := pairs[k]
		yes, err := e.matchOnce(ctx, s, req.Left[p.l], req.Right[p.r])
		if err != nil {
			return "", err
		}
		if yes {
			return "Y", nil
		}
		return "N", nil
	})
	if err != nil {
		return JoinResult{}, fmt.Errorf("nested-loop join: %w", err)
	}
	res := JoinResult{LLMComparisons: len(pairs)}
	for k, a := range answers {
		if a == "Y" {
			res.Matches = append(res.Matches, JoinPair{
				LeftID:  req.Left[pairs[k].l].ID,
				RightID: req.Right[pairs[k].r].ID,
			})
		}
	}
	return res, nil
}

// joinTransitive sequences candidate comparisons from most to least
// similar so that positive transitive closure forms early and later
// comparisons can be skipped — Wang et al.'s cost reduction. Sequential
// by design: each answer informs whether the next question is needed.
func (e *Engine) joinTransitive(ctx context.Context, s *session, req JoinRequest) (JoinResult, error) {
	type cand struct {
		l, r int
		dist float64
	}
	// Index the right side once (embedded in parallel); each left record
	// is embedded once by its radius query. The partition pruning bound
	// keeps Within exact, so candidate generation matches the old full
	// L×R scan while skipping partitions beyond the cutoff.
	rightIDs := corpusIDs(len(req.Right))
	rix := e.indexEntities(req.Right, rightIDs)
	var res JoinResult
	var cands []cand
	for l := range req.Left {
		nbrs := rix.Within(req.Left[l].Text, req.CandidateDistance)
		res.SkippedByDistance += len(req.Right) - len(nbrs)
		for _, nb := range nbrs {
			r, err := strconv.Atoi(nb.ID)
			if err != nil {
				continue
			}
			cands = append(cands, cand{l, r, nb.Distance})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		if cands[i].l != cands[j].l {
			return cands[i].l < cands[j].l
		}
		return cands[i].r < cands[j].r
	})
	graph := consistency.NewMatchGraph()
	for _, c := range cands {
		lid, rid := req.Left[c.l].ID, req.Right[c.r].ID
		if graph.Connected(lid, rid) {
			res.SkippedByTransitivity++
			res.Matches = append(res.Matches, JoinPair{LeftID: lid, RightID: rid})
			continue
		}
		yes, err := e.matchOnce(ctx, s, req.Left[c.l], req.Right[c.r])
		if err != nil {
			return JoinResult{}, fmt.Errorf("transitive join: %w", err)
		}
		res.LLMComparisons++
		if yes {
			graph.AddMatch(lid, rid)
			res.Matches = append(res.Matches, JoinPair{LeftID: lid, RightID: rid})
		}
	}
	return res, nil
}
