package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestKendallTauBPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	tau, err := KendallTauB(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, 1) {
		t.Fatalf("tau = %f, want 1", tau)
	}
}

func TestKendallTauBReversed(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	tau, err := KendallTauB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, -1) {
		t.Fatalf("tau = %f, want -1", tau)
	}
}

func TestKendallTauBKnownValue(t *testing.T) {
	// Hand-computed example with ties.
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 1, 3, 4}
	// Pairs: (1,2): dx=1 dy=0 -> tieY; (1,3): C; (1,4): C; (2,3): C; (2,4): C; (3,4): C.
	// C=5, D=0, Tx=0, Ty=1. tau = 5 / sqrt(6*5) = 5/sqrt(30).
	want := 5 / math.Sqrt(30)
	tau, err := KendallTauB(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, want) {
		t.Fatalf("tau = %f, want %f", tau, want)
	}
}

func TestKendallTauBErrors(t *testing.T) {
	if _, err := KendallTauB([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error on single observation")
	}
	if _, err := KendallTauB([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want error on length mismatch")
	}
	if _, err := KendallTauB([]float64{1, 1}, []float64{2, 2}); err == nil {
		t.Fatal("want error on fully tied input")
	}
}

func TestKendallTauBSymmetry(t *testing.T) {
	// Property: tau(x,y) == tau(y,x).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(10))
			y[i] = float64(rng.Intn(10))
		}
		a, errA := KendallTauB(x, y)
		b, errB := KendallTauB(y, x)
		if errA != nil || errB != nil {
			return (errA == nil) == (errB == nil)
		}
		return almostEq(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKendallTauBRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		tau, err := KendallTauB(x, y)
		if err != nil {
			return true
		}
		return tau >= -1-1e-9 && tau <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKendallTauRanks(t *testing.T) {
	truth := []string{"a", "b", "c", "d"}
	tau, err := KendallTauRanks(truth, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, 1) {
		t.Fatalf("tau = %f, want 1", tau)
	}
	tau, err = KendallTauRanks(truth, []string{"d", "c", "b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, -1) {
		t.Fatalf("tau = %f, want -1", tau)
	}
	// Unknown and duplicate predictions are ignored.
	tau, err = KendallTauRanks(truth, []string{"a", "zzz", "b", "a", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(tau, 1) {
		t.Fatalf("tau with noise = %f, want 1", tau)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Observe(true, true)   // TP
	c.Observe(true, true)   // TP
	c.Observe(true, false)  // FP
	c.Observe(false, true)  // FN
	c.Observe(false, false) // TN
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if !almostEq(c.Precision(), 2.0/3.0) {
		t.Fatalf("precision = %f", c.Precision())
	}
	if !almostEq(c.Recall(), 2.0/3.0) {
		t.Fatalf("recall = %f", c.Recall())
	}
	if !almostEq(c.F1(), 2.0/3.0) {
		t.Fatalf("f1 = %f", c.F1())
	}
	if !almostEq(c.Accuracy(), 3.0/5.0) {
		t.Fatalf("accuracy = %f", c.Accuracy())
	}
	if c.Total() != 5 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestConfusionEmpty(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty confusion should yield zeros, not NaN")
	}
}

func TestF1BetweenPrecisionAndRecall(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn)}
		f1 := c.F1()
		lo, hi := c.Precision(), c.Recall()
		if lo > hi {
			lo, hi = hi, lo
		}
		return f1 >= lo-1e-9 && f1 <= hi+1e-9 || (c.TP == 0 && f1 == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]string{"a", "b", "c"}, []string{"a", "x", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(acc, 2.0/3.0) {
		t.Fatalf("acc = %f", acc)
	}
	if _, err := Accuracy([]string{"a"}, []string{}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Fatal("want empty input error")
	}
}
