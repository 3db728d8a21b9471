package token

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCountEmpty(t *testing.T) {
	if got := Count(""); got != 0 {
		t.Fatalf("Count(\"\") = %d, want 0", got)
	}
	if got := Count("   \n\t "); got != 0 {
		t.Fatalf("Count(whitespace) = %d, want 0", got)
	}
}

func TestCountWords(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"cat", 1},
		{"cats", 1},
		{"hello", 2},       // 5 letters -> 2 tokens
		{"hello world", 4}, // 2+2
		{"a b c", 3},
		{"chocolate", 3}, // 9 letters -> ceil(9/4)=3
		{"Yes.", 2},      // word + period
		{"1234", 2},      // 4 digits -> 2 groups of 3
		{"12", 1},
		{"a,b", 3},
		{"don't", 3}, // don + ' + t
	}
	for _, tt := range tests {
		if got := Count(tt.in); got != tt.want {
			t.Errorf("Count(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestCountMonotoneUnderConcat(t *testing.T) {
	// Property: Count(a + " " + b) == Count(a) + Count(b) since whitespace
	// separates token groups cleanly.
	f := func(a, b string) bool {
		return Count(a+" "+b) == Count(a)+Count(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountNonNegativeAndBounded(t *testing.T) {
	// Property: 0 <= Count(s) <= len([]rune(s)) — no token can be shorter
	// than one rune.
	f := func(s string) bool {
		c := Count(s)
		return c >= 0 && c <= len([]rune(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUsageArithmetic(t *testing.T) {
	a := Usage{PromptTokens: 10, CompletionTokens: 5, Calls: 1}
	b := Usage{PromptTokens: 3, CompletionTokens: 2, Calls: 1}
	sum := a.Add(b)
	if sum.PromptTokens != 13 || sum.CompletionTokens != 7 || sum.Calls != 2 {
		t.Fatalf("Add = %+v", sum)
	}
	if sum.Total() != 20 {
		t.Fatalf("Total = %d, want 20", sum.Total())
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub = %+v, want %+v", diff, a)
	}
	if zero := (Usage{}); !zero.IsZero() {
		t.Fatal("zero usage should be zero")
	}
	if a.IsZero() {
		t.Fatal("non-zero usage reported zero")
	}
}

func TestUsageAddCommutative(t *testing.T) {
	f := func(p1, c1, n1, p2, c2, n2 int16) bool {
		a := Usage{int(p1), int(c1), int(n1)}
		b := Usage{int(p2), int(c2), int(n2)}
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPriceCost(t *testing.T) {
	p := Price{InputPer1K: 1.0, OutputPer1K: 2.0}
	u := Usage{PromptTokens: 1000, CompletionTokens: 500}
	if got := p.Cost(u); got != 1.0+1.0 {
		t.Fatalf("Cost = %f, want 2.0", got)
	}
}

func TestPriceFor(t *testing.T) {
	if PriceFor("sim-gpt-4").InputPer1K != 0.03 {
		t.Fatal("sim-gpt-4 price wrong")
	}
	// Unknown model falls back to gpt-3.5 rate, not zero.
	if PriceFor("no-such-model").InputPer1K == 0 {
		t.Fatal("fallback price should be non-zero")
	}
}

func TestRegisterPrice(t *testing.T) {
	RegisterPrice("test-model-xyz", Price{InputPer1K: 9, OutputPer1K: 9})
	if PriceFor("test-model-xyz").InputPer1K != 9 {
		t.Fatal("RegisterPrice did not take effect")
	}
}

func TestTruncateToTokens(t *testing.T) {
	s := "alpha beta gamma delta epsilon"
	full := Count(s)
	if got := TruncateToTokens(s, full); got != s {
		t.Fatalf("truncate at full count changed string: %q", got)
	}
	if got := TruncateToTokens(s, 0); got != "" {
		t.Fatalf("truncate to 0 = %q, want empty", got)
	}
	half := TruncateToTokens(s, full/2)
	if Count(half) > full/2 {
		t.Fatalf("truncated string has %d tokens, limit %d", Count(half), full/2)
	}
	if !strings.HasPrefix(s, half) {
		t.Fatalf("truncation %q is not a prefix of %q", half, s)
	}
}

func TestTruncatePrefixProperty(t *testing.T) {
	f := func(s string, limit uint8) bool {
		out := TruncateToTokens(s, int(limit))
		return Count(out) <= int(limit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
