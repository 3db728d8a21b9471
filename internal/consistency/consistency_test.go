package consistency

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind()
	uf.Add("a")
	uf.Add("a") // idempotent
	if uf.Sets() != 1 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union("a", "b") {
		t.Fatal("first union should merge")
	}
	if uf.Union("a", "b") {
		t.Fatal("second union should be a no-op")
	}
	if !uf.Same("a", "b") {
		t.Fatal("a and b should be together")
	}
	if uf.Same("a", "c") {
		t.Fatal("a and c should be apart")
	}
	if uf.Sets() != 2 { // {a,b} and {c} (c auto-added by Same)
		t.Fatalf("Sets = %d, want 2", uf.Sets())
	}
}

func TestUnionFindGroups(t *testing.T) {
	uf := NewUnionFind()
	uf.Union("a", "b")
	uf.Union("b", "c")
	uf.Add("d")
	groups := uf.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	members := groups[uf.Find("a")]
	sort.Strings(members)
	if !reflect.DeepEqual(members, []string{"a", "b", "c"}) {
		t.Fatalf("group = %v", members)
	}
}

func TestUnionFindTransitivityProperty(t *testing.T) {
	// Property: union is transitive — chaining k unions yields one set.
	f := func(n uint8) bool {
		uf := NewUnionFind()
		k := int(n%20) + 2
		ids := make([]string, k)
		for i := range ids {
			ids[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
			if i > 0 {
				uf.Union(ids[i-1], ids[i])
			}
		}
		return uf.Same(ids[0], ids[k-1]) && uf.Sets() == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchGraphConnectivity(t *testing.T) {
	g := NewMatchGraph()
	g.AddMatch("a", "b")
	g.AddMatch("b", "c")
	g.AddNode("d")
	if !g.HasEdge("a", "b") || g.HasEdge("a", "c") {
		t.Fatal("edge bookkeeping wrong")
	}
	if !g.Connected("a", "c") {
		t.Fatal("a-c should be transitively connected")
	}
	if g.Connected("a", "d") {
		t.Fatal("a-d should be disconnected")
	}
	if g.Connected("a", "zzz") {
		t.Fatal("unknown node should be disconnected")
	}
	if !g.Connected("a", "a") {
		t.Fatal("known node should be connected to itself")
	}
}

func TestMatchGraphSelfEdge(t *testing.T) {
	g := NewMatchGraph()
	g.AddMatch("a", "a")
	if g.HasEdge("a", "a") {
		t.Fatal("self edge should not be stored")
	}
	if !g.Connected("a", "a") {
		t.Fatal("node should still exist")
	}
}

func TestMatchGraphPath(t *testing.T) {
	g := NewMatchGraph()
	g.AddMatch("a", "b")
	g.AddMatch("b", "c")
	g.AddMatch("a", "d") // longer alternative a-d? no edge d-c
	path := g.Path("a", "c")
	if !reflect.DeepEqual(path, []string{"a", "b", "c"}) {
		t.Fatalf("path = %v", path)
	}
	if g.Path("a", "zzz") != nil {
		t.Fatal("path to unknown node should be nil")
	}
	if p := g.Path("a", "a"); !reflect.DeepEqual(p, []string{"a"}) {
		t.Fatalf("self path = %v", p)
	}
}

func TestMatchGraphComponents(t *testing.T) {
	g := NewMatchGraph()
	g.AddMatch("b", "a")
	g.AddMatch("c", "b")
	g.AddNode("z")
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if !reflect.DeepEqual(comps[0], []string{"a", "b", "c"}) {
		t.Fatalf("first component = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []string{"z"}) {
		t.Fatalf("second component = %v", comps[1])
	}
	if !reflect.DeepEqual(g.Nodes(), []string{"a", "b", "c", "z"}) {
		t.Fatalf("nodes = %v", g.Nodes())
	}
}

func TestTournamentCopeland(t *testing.T) {
	tr := NewTournament([]string{"a", "b", "c"})
	tr.Record("a", "b")
	tr.Record("a", "c")
	tr.Record("b", "c")
	order := tr.CopelandOrder()
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Fatalf("order = %v", order)
	}
	if v := tr.Violations(order); v != 0 {
		t.Fatalf("violations = %d", v)
	}
	if v := tr.Violations([]string{"c", "b", "a"}); v != 3 {
		t.Fatalf("reversed violations = %d, want 3", v)
	}
}

func TestTournamentRecordIgnoresJunk(t *testing.T) {
	tr := NewTournament([]string{"a", "b"})
	tr.Record("a", "a")
	tr.Record("zzz", "a")
	tr.Record("a", "zzz")
	if v := tr.Violations([]string{"b", "a"}); v != 0 {
		t.Fatal("junk records should not count")
	}
}

func TestTournamentDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate items should panic")
		}
	}()
	NewTournament([]string{"a", "a"})
}

func TestRepairOrderFixesCycle(t *testing.T) {
	// a>b twice, b>c twice, and one inconsistent c>a. The ML order flips
	// the single c>a edge: a, b, c.
	tr := NewTournament([]string{"a", "b", "c"})
	tr.Record("a", "b")
	tr.Record("a", "b")
	tr.Record("b", "c")
	tr.Record("b", "c")
	tr.Record("c", "a")
	order := tr.RepairOrder()
	if !reflect.DeepEqual(order, []string{"a", "b", "c"}) {
		t.Fatalf("repair order = %v", order)
	}
	if v := tr.Violations(order); v != 1 {
		t.Fatalf("violations = %d, want 1", v)
	}
}

func TestRepairOrderEmptyAndSingle(t *testing.T) {
	if got := NewTournament(nil).RepairOrder(); got != nil {
		t.Fatalf("empty repair = %v", got)
	}
	if got := NewTournament([]string{"a"}).RepairOrder(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("single repair = %v", got)
	}
	if NewTournament(nil).MaxItem() != "" {
		t.Fatal("empty MaxItem should be empty string")
	}
}

func TestRepairOrderOptimalProperty(t *testing.T) {
	// Property: for small n, the exact repair order has violations <= any
	// random permutation's violations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		items := make([]string, n)
		for i := range items {
			items[i] = string(rune('a' + i))
		}
		tr := NewTournament(items)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					tr.Record(items[i], items[j])
				} else {
					tr.Record(items[j], items[i])
				}
			}
		}
		best := tr.Violations(tr.RepairOrder())
		perm := rng.Perm(n)
		randOrder := make([]string, n)
		for i, p := range perm {
			randOrder[i] = items[p]
		}
		return best <= tr.Violations(randOrder)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRepairOrderLargeLocalSearch(t *testing.T) {
	// 20 items exceeds the exact limit; local search must still beat
	// (or match) Copeland on a noisy tournament.
	rng := rand.New(rand.NewSource(9))
	items := make([]string, 20)
	for i := range items {
		items[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	tr := NewTournament(items)
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			// True order is slice order; 20% mistakes.
			if rng.Float64() < 0.8 {
				tr.Record(items[i], items[j])
			} else {
				tr.Record(items[j], items[i])
			}
		}
	}
	repaired := tr.Violations(tr.RepairOrder())
	copeland := tr.Violations(tr.CopelandOrder())
	if repaired > copeland {
		t.Fatalf("local search (%d violations) worse than Copeland (%d)", repaired, copeland)
	}
}

func TestMaxItem(t *testing.T) {
	tr := NewTournament([]string{"a", "b", "c"})
	tr.Record("b", "a")
	tr.Record("b", "c")
	tr.Record("a", "c")
	if got := tr.MaxItem(); got != "b" {
		t.Fatalf("MaxItem = %q, want b", got)
	}
}

func TestAlignmentInsertPerfectSignals(t *testing.T) {
	// Candidate belongs at index 2 of a 4-item list.
	comps := []Comparison{
		{0, false}, {1, false}, {2, true}, {3, true},
	}
	if got := AlignmentInsert(4, comps); got != 2 {
		t.Fatalf("insert = %d, want 2", got)
	}
}

func TestAlignmentInsertOutvotesEarlyMistake(t *testing.T) {
	// One early erroneous "less" at index 0 must not drag the candidate to
	// the front when all other evidence points to index 3.
	comps := []Comparison{
		{0, true}, // mistake
		{0, false},
		{1, false}, {1, false},
		{2, false}, {2, false},
		{3, true}, {3, true},
	}
	if got := AlignmentInsert(4, comps); got != 3 {
		t.Fatalf("insert = %d, want 3", got)
	}
}

func TestAlignmentInsertEdges(t *testing.T) {
	if got := AlignmentInsert(0, nil); got != 0 {
		t.Fatalf("empty list insert = %d", got)
	}
	if got := AlignmentInsert(-3, nil); got != 0 {
		t.Fatalf("negative list insert = %d", got)
	}
	// All-greater evidence puts the item at the end.
	comps := []Comparison{{0, false}, {1, false}}
	if got := AlignmentInsert(2, comps); got != 2 {
		t.Fatalf("insert = %d, want 2", got)
	}
	// Out-of-range indices are ignored.
	comps = []Comparison{{-1, true}, {99, false}, {0, true}}
	if got := AlignmentInsert(2, comps); got != 0 {
		t.Fatalf("insert = %d, want 0", got)
	}
}

func TestAlignmentInsertOptimalProperty(t *testing.T) {
	// Property: the chosen position has violations <= every other position.
	violationsAt := func(listLen, p int, comps []Comparison) int {
		v := 0
		for _, c := range comps {
			if c.ListIndex < 0 || c.ListIndex >= listLen {
				continue
			}
			if c.ListIndex < p && c.Less {
				v++
			}
			if c.ListIndex >= p && !c.Less {
				v++
			}
		}
		return v
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		listLen := 1 + rng.Intn(12)
		var comps []Comparison
		for i := 0; i < listLen*2; i++ {
			comps = append(comps, Comparison{
				ListIndex: rng.Intn(listLen),
				Less:      rng.Intn(2) == 0,
			})
		}
		best := AlignmentInsert(listLen, comps)
		bv := violationsAt(listLen, best, comps)
		for p := 0; p <= listLen; p++ {
			if violationsAt(listLen, p, comps) < bv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInsertAt(t *testing.T) {
	list := []string{"a", "b"}
	if got := InsertAt(list, "x", 1); !reflect.DeepEqual(got, []string{"a", "x", "b"}) {
		t.Fatalf("InsertAt = %v", got)
	}
	if got := InsertAt(list, "x", -5); !reflect.DeepEqual(got, []string{"x", "a", "b"}) {
		t.Fatalf("clamped low = %v", got)
	}
	if got := InsertAt(list, "x", 99); !reflect.DeepEqual(got, []string{"a", "b", "x"}) {
		t.Fatalf("clamped high = %v", got)
	}
	if !reflect.DeepEqual(list, []string{"a", "b"}) {
		t.Fatal("InsertAt mutated input")
	}
}
