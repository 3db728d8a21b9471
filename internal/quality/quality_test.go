package quality

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/llm"
)

// noisyYesNo returns a model that answers a fixed ground truth with the
// given accuracy, deterministically per (prompt, seed).
func noisyYesNo(name string, truth func(prompt string) bool, accuracy float64) llm.Model {
	return llm.Func{ModelName: name, Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		h := int64(0)
		for _, c := range req.Prompt {
			h = h*31 + int64(c)
		}
		rng := rand.New(rand.NewSource(h ^ req.Seed<<1))
		ans := truth(req.Prompt)
		if rng.Float64() > accuracy {
			ans = !ans
		}
		text := "No"
		if ans {
			text = "Yes"
		}
		return llm.Response{Text: text, Model: name}, nil
	}}
}

func TestEstimateAccuracy(t *testing.T) {
	ask := func(ctx context.Context, input string) (string, error) {
		if input == "bad" {
			return "", fmt.Errorf("boom")
		}
		return input, nil // echo: correct iff gold == input
	}
	val := []Labeled{
		{Input: "a", Gold: "a"},
		{Input: "b", Gold: "x"},
		{Input: "bad", Gold: "bad"},
		{Input: "c", Gold: "c"},
	}
	acc, err := EstimateAccuracy(context.Background(), ask, val)
	if err == nil {
		t.Fatal("first asker error should be surfaced")
	}
	if acc != 0.5 {
		t.Fatalf("acc = %f, want 0.5", acc)
	}
	if _, err := EstimateAccuracy(context.Background(), ask, nil); err == nil {
		t.Fatal("empty validation should error")
	}
}

func TestEMBinaryRecoversAccuracies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const tasks = 500
	accs := []float64{0.9, 0.8, 0.7, 0.65, 0.55}
	truth := make([]bool, tasks)
	votes := make([][]bool, tasks)
	for i := range votes {
		truth[i] = rng.Intn(2) == 0
		row := make([]bool, len(accs))
		for j, a := range accs {
			row[j] = truth[i]
			if rng.Float64() > a {
				row[j] = !row[j]
			}
		}
		votes[i] = row
	}
	res, err := EMBinary(votes, 200, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range accs {
		if diff := res.ModelAccuracy[j] - want; diff > 0.07 || diff < -0.07 {
			t.Errorf("model %d accuracy = %.3f, want ~%.2f", j, res.ModelAccuracy[j], want)
		}
	}
	emCorrect, majCorrect := 0, 0
	for i := range truth {
		if res.Consensus[i] == truth[i] {
			emCorrect++
		}
		y := 0
		for _, v := range votes[i] {
			if v {
				y++
			}
		}
		if (2*y > len(accs)) == truth[i] {
			majCorrect++
		}
	}
	// The EM consensus must beat plain majority vote — the reason to run
	// EM at all.
	if emCorrect <= majCorrect {
		t.Fatalf("EM consensus %d should beat majority vote %d", emCorrect, majCorrect)
	}
	if frac := float64(emCorrect) / tasks; frac < 0.88 {
		t.Fatalf("consensus accuracy = %.3f, want > 0.88", frac)
	}
	if res.Iterations == 0 {
		t.Fatal("EM should iterate")
	}
}

func TestEMBinaryValidation(t *testing.T) {
	if _, err := EMBinary(nil, 10, 0); err == nil {
		t.Fatal("empty matrix should error")
	}
	if _, err := EMBinary([][]bool{{}}, 10, 0); err == nil {
		t.Fatal("zero-model matrix should error")
	}
	if _, err := EMBinary([][]bool{{true}, {true, false}}, 10, 0); err == nil {
		t.Fatal("ragged matrix should error")
	}
}

func TestEMBinaryUnanimous(t *testing.T) {
	votes := [][]bool{{true, true}, {true, true}, {false, false}}
	res, err := EMBinary(votes, 50, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consensus[0] || !res.Consensus[1] || res.Consensus[2] {
		t.Fatalf("consensus = %v", res.Consensus)
	}
}

func TestMajorityYesNo(t *testing.T) {
	m := noisyYesNo("m", func(string) bool { return true }, 0.8)
	ans, yes, no, err := MajorityYesNo(context.Background(), m, "is water wet?", 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ans {
		t.Fatalf("majority = %v (yes=%d no=%d)", ans, yes, no)
	}
	if yes+no != 15 {
		t.Fatalf("votes = %d", yes+no)
	}
	if _, _, _, err := MajorityYesNo(context.Background(), m, "p", 0, 1); err == nil {
		t.Fatal("k=0 should error")
	}
}

func TestMajorityYesNoAllUnparseable(t *testing.T) {
	m := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "mumble"}, nil
	}}
	_, _, _, err := MajorityYesNo(context.Background(), m, "p", 3, 1)
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("want ErrNoAnswer, got %v", err)
	}
}

func TestSequentialYesNoStopsEarly(t *testing.T) {
	m := noisyYesNo("m", func(string) bool { return true }, 1.0) // always right
	ans, asks, err := SequentialYesNo(context.Background(), m, "easy question", 20, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ans {
		t.Fatal("answer should be yes")
	}
	if asks != 3 {
		t.Fatalf("asks = %d, want exactly margin (3) on an easy item", asks)
	}
}

func TestSequentialYesNoExhaustsOnContested(t *testing.T) {
	// A coin-flip model rarely reaches a margin of 8 in 10 asks.
	m := noisyYesNo("m", func(string) bool { return true }, 0.5)
	_, asks, err := SequentialYesNo(context.Background(), m, "contested item", 10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if asks != 10 {
		t.Fatalf("asks = %d, want max on contested item", asks)
	}
	if _, _, err := SequentialYesNo(context.Background(), m, "p", 0, 1, 1); err == nil {
		t.Fatal("maxAsks=0 should error")
	}
}

func TestAskWithRetry(t *testing.T) {
	calls := 0
	m := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		calls++
		if calls < 3 {
			return llm.Response{Text: "garbage"}, nil
		}
		return llm.Response{Text: "42"}, nil
	}}
	parse := func(s string) (int, error) {
		if s != "42" {
			return 0, fmt.Errorf("nope")
		}
		return 42, nil
	}
	v, err := AskWithRetry(context.Background(), m, "p", parse, 5)
	if err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestAskWithRetryExhausted(t *testing.T) {
	m := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "junk"}, nil
	}}
	_, err := AskWithRetry(context.Background(), m, "p",
		func(s string) (int, error) { return 0, fmt.Errorf("no") }, 3)
	if !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("want ErrNoAnswer, got %v", err)
	}
}

func TestAskWithRetryModelError(t *testing.T) {
	sentinel := errors.New("down")
	m := llm.Func{ModelName: "m", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{}, sentinel
	}}
	_, err := AskWithRetry(context.Background(), m, "p",
		func(s string) (int, error) { return 1, nil }, 3)
	if !errors.Is(err, sentinel) {
		t.Fatalf("model errors should propagate, got %v", err)
	}
}

func TestCascadeYesNo(t *testing.T) {
	// Cheap model: always wrong on "hard", always right on "easy".
	cheap := llm.Func{ModelName: "cheap", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "hard") {
			// Disagreeing samples: alternate by seed.
			if req.Seed%2 == 0 {
				return llm.Response{Text: "Yes"}, nil
			}
			return llm.Response{Text: "No"}, nil
		}
		return llm.Response{Text: "Yes"}, nil
	}}
	strongCalls := 0
	strong := llm.Func{ModelName: "strong", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		strongCalls++
		return llm.Response{Text: "No"}, nil
	}}

	// Easy question: unanimous cheap votes, no escalation.
	ans, escalated, err := CascadeYesNo(context.Background(), cheap, strong, "easy question", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ans || escalated || strongCalls != 0 {
		t.Fatalf("easy: ans=%v escalated=%v strongCalls=%d", ans, escalated, strongCalls)
	}
	// Hard question: split votes, escalate to the strong model.
	ans, escalated, err = CascadeYesNo(context.Background(), cheap, strong, "hard question", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ans || !escalated || strongCalls != 1 {
		t.Fatalf("hard: ans=%v escalated=%v strongCalls=%d", ans, escalated, strongCalls)
	}
	if _, _, err := CascadeYesNo(context.Background(), cheap, strong, "q", 0, 1); err == nil {
		t.Fatal("cheapVotes=0 should error")
	}
}

func TestCascadeEscalatesOnUnparseableCheap(t *testing.T) {
	cheap := llm.Func{ModelName: "cheap", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "mumble"}, nil
	}}
	strong := llm.Func{ModelName: "strong", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		return llm.Response{Text: "Yes"}, nil
	}}
	ans, escalated, err := CascadeYesNo(context.Background(), cheap, strong, "q", 3, 1)
	if err != nil || !ans || !escalated {
		t.Fatalf("ans=%v escalated=%v err=%v", ans, escalated, err)
	}
}
