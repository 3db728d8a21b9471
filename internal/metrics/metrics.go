// Package metrics implements the evaluation measures used across the
// paper's case studies: rank correlation for sorting (Kendall Tau-b),
// precision/recall/F1 for entity resolution, and accuracy for imputation
// and classification, plus cost summaries.
package metrics

import (
	"fmt"
	"math"
)

// KendallTauB computes the tie-aware Kendall rank correlation coefficient
// (Tau-b) between two paired score slices. It is the metric the paper calls
// "Kendall Tau-β". The result lies in [-1, 1]; 1 means perfectly
// concordant, -1 perfectly discordant. The slices must have equal length
// of at least 2; otherwise KendallTauB returns an error.
//
// Tau-b = (C - D) / sqrt((C + D + Tx) * (C + D + Ty))
// where C/D are concordant/discordant pair counts and Tx/Ty count pairs
// tied only in x (resp. only in y).
func KendallTauB(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return 0, fmt.Errorf("metrics: need at least 2 observations, got %d", n)
	}
	var concordant, discordant, tiesX, tiesY int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := sign(x[j] - x[i])
			dy := sign(y[j] - y[i])
			switch {
			case dx == 0 && dy == 0:
				// Tied in both: excluded from every term.
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx == dy:
				concordant++
			default:
				discordant++
			}
		}
	}
	denom := math.Sqrt(float64(concordant+discordant+tiesX)) *
		math.Sqrt(float64(concordant+discordant+tiesY))
	if denom == 0 {
		return 0, fmt.Errorf("metrics: degenerate input (all values tied)")
	}
	return float64(concordant-discordant) / denom, nil
}

// KendallTauRanks computes Tau-b between a ground-truth ordering and a
// predicted ordering of (a subset of) the same items. Both slices list item
// identifiers from best to worst. Items present in truth but absent from
// pred are ignored (the caller decides how to penalise omissions, e.g. by
// random insertion, as the paper does). Unknown items in pred are ignored.
func KendallTauRanks(truth, pred []string) (float64, error) {
	truthPos := make(map[string]int, len(truth))
	for i, id := range truth {
		truthPos[id] = i
	}
	var x, y []float64
	seen := make(map[string]bool, len(pred))
	for i, id := range pred {
		pos, ok := truthPos[id]
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		x = append(x, float64(pos))
		y = append(y, float64(i))
	}
	return KendallTauB(x, y)
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// Confusion tallies binary classification outcomes.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one prediction against the gold label.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision returns TP / (TP + FP), or 0 when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 0 when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall, or 0 when undefined.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns the fraction of correct predictions, or 0 on no data.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Total returns the number of observations.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns the fraction of positions where pred matches gold.
// The slices must have equal length; mismatched lengths yield an error.
func Accuracy(pred, gold []string) (float64, error) {
	if len(pred) != len(gold) {
		return 0, fmt.Errorf("metrics: length mismatch %d vs %d", len(pred), len(gold))
	}
	if len(gold) == 0 {
		return 0, fmt.Errorf("metrics: empty input")
	}
	correct := 0
	for i := range gold {
		if pred[i] == gold[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(gold)), nil
}
