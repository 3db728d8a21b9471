package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/llm/sim"
	"repro/internal/pipeline"
)

// modelName is the simulated model every workload runs against.
const modelName = "sim-gpt-3.5-turbo"

// newSim builds the zero-latency simulator with the two predicates the
// restaurant spec asks about registered, as the pipeline study does.
func newSim() *sim.Oracle {
	oracle := sim.NewNamed(modelName)
	oracle.RegisterPredicate(sim.Predicate{
		Name:  "serves-cuisine",
		Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "restaurant serves") },
		Truth: func(item string) (bool, float64) {
			return servesCuisine(item), 1
		},
	})
	oracle.RegisterPredicate(sim.Predicate{
		Name:  "in-new-york",
		Match: func(s string) bool { return strings.Contains(strings.ToLower(s), "new york") },
		Truth: func(item string) (bool, float64) {
			return strings.Contains(strings.ToLower(item), "new york"), 1
		},
	})
	return oracle
}

// servesCuisine is the truth of the restaurant spec's filter.
func servesCuisine(cuisine string) bool {
	switch strings.ToLower(strings.TrimSpace(cuisine)) {
	case "seafood", "steakhouses", "pizza":
		return true
	}
	return false
}

// Stage names of the restaurant spec; the per-stage metrics are keyed by
// them.
var restaurantStages = []string{"cuisine", "entities", "city", "in-ny"}

// restaurantSpec is the restaurant job in the worst user order: the
// quadratic dedupe first, the cheap filter second. Optimize pushes the
// filter ahead of the dedupe, which the declared type invariant licenses.
func restaurantSpec() pipeline.Spec {
	return pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "entities", Kind: pipeline.KindResolve, Input: "source",
			Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "cuisine", Kind: pipeline.KindFilter, Field: "type",
			Predicate: "the restaurant serves seafood, steak, or pizza", Selectivity: 0.3},
		{Name: "city", Kind: pipeline.KindImpute, TargetField: "city",
			Side: "train", Strategy: "hybrid", Neighbors: 3, Examples: 2},
		{Name: "in-ny", Kind: pipeline.KindCount, Field: "city",
			Predicate: "the city is new york", Strategy: "per-item"},
	}}
}

// flavorSpec is the paper's sorting case study: filter flavors, then
// rank the survivors pairwise.
func flavorSpec() pipeline.Spec {
	return pipeline.Spec{Stages: []pipeline.StageSpec{
		{Name: "chocolatey", Kind: pipeline.KindFilter, Field: "name",
			Predicate: "the ice cream is a chocolatey flavor"},
		{Name: "ranked", Kind: pipeline.KindSort, Field: "name",
			Criterion: "how chocolatey they are", Strategy: "pairwise"},
	}}
}

// jobInput is one generated job: its tables, the gold city of every
// source record, and the source width (the records_per_s numerator).
type jobInput struct {
	spec    pipeline.Spec
	tables  map[string][]dataset.Record
	gold    map[string]string
	records int
}

// restaurantJob generates a restaurant table of base records whose city
// is masked for imputation, match of them of a cuisine the filter keeps,
// and a dupFrac share of each kind duplicated with a corrupted address
// and phone but the same name and type (so the resolve invariant holds),
// plus a train side table of train records. The seed varies the records;
// the counts fix how much work a job is. prefix keeps record IDs of
// different jobs apart.
func restaurantJob(prefix string, base, match, train int, dupFrac float64, seed int64) jobInput {
	var picked []dataset.Record
	var trainRecs []dataset.Record
	var target string
	for n := 4 * base; len(picked) < base; n *= 2 {
		ds := dataset.GenerateRestaurants(train, n, seed)
		trainRecs, target, picked = ds.Train, ds.TargetField, nil
		keep, other := match, base-match
		for _, r := range ds.Test {
			cuisine, _ := r.Get("type")
			switch {
			case servesCuisine(cuisine) && keep > 0:
				keep--
			case !servesCuisine(cuisine) && other > 0:
				other--
			default:
				continue
			}
			picked = append(picked, r)
		}
	}
	rng := rand.New(rand.NewSource(seed*31 + 7))
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	dups := map[bool]int{
		true:  int(math.Round(dupFrac * float64(match))),
		false: int(math.Round(dupFrac * float64(base-match))),
	}
	gold := make(map[string]string)
	var source []dataset.Record
	for _, r := range picked {
		city, _ := r.Get(target)
		masked := r.WithoutField(target)
		masked.ID = prefix + masked.ID
		gold[masked.ID] = city
		source = append(source, masked)
		cuisine, _ := r.Get("type")
		if kind := servesCuisine(cuisine); dups[kind] > 0 {
			dups[kind]--
			dup := masked.Clone()
			dup.ID = masked.ID + "-dup"
			if addr, ok := dup.Get("addr"); ok {
				dup.Set("addr", fmt.Sprintf("%d %s", 10+rng.Intn(990), strings.TrimLeft(addr, "0123456789 ")))
			}
			if phone, ok := dup.Get("phone"); ok && len(phone) >= 4 {
				dup.Set("phone", phone[:len(phone)-4]+fmt.Sprintf("%04d", rng.Intn(10000)))
			}
			gold[dup.ID] = city
			source = append(source, dup)
		}
	}
	return jobInput{
		spec:    restaurantSpec(),
		tables:  map[string][]dataset.Record{"source": source, "train": trainRecs},
		gold:    gold,
		records: len(source),
	}
}

// flavorJob draws a seeded subset of flavor names, choc of them
// chocolatey and other not, in seeded order.
func flavorJob(choc, other int, seed int64) jobInput {
	names := dataset.FlavorNames()
	rng := rand.New(rand.NewSource(seed))
	var recs []dataset.Record
	for _, i := range rng.Perm(len(names)) {
		score, _ := dataset.FlavorScore(strings.ToLower(names[i]))
		want := &other
		if score > 0.5 {
			want = &choc
		}
		if *want == 0 {
			continue
		}
		*want--
		recs = append(recs, dataset.Record{
			ID:     fmt.Sprintf("flavor-%02d", i),
			Fields: []dataset.Field{{Name: "name", Value: names[i]}},
		})
	}
	return jobInput{spec: flavorSpec(), tables: map[string][]dataset.Record{"source": recs}, records: len(recs)}
}

// scorer tallies imputed city fields against gold, once per record: a
// record that recurs in later jobs is answered from cache or re-run
// cold with the same answer, so counting it again would weight records
// by how often the workload happens to repeat them.
type scorer struct {
	seen       map[string]bool
	hit, total int
}

func newScorer() *scorer { return &scorer{seen: make(map[string]bool)} }

func (s *scorer) add(tables map[string][]dataset.Record, gold map[string]string) {
	for _, r := range tables["city"] {
		want, ok := gold[r.ID]
		if !ok || s.seen[r.ID] {
			continue
		}
		s.seen[r.ID] = true
		s.total++
		if got, _ := r.Get("city"); got == want {
			s.hit++
		}
	}
}

// set reports answer_accuracy when any field was scored.
func (s *scorer) set(r *result) {
	if s.total > 0 {
		r.set("answer_accuracy", float64(s.hit)/float64(s.total))
	}
}
