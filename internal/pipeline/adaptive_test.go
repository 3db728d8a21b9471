package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/llm/sim"
)

// TestRecordSpoolSpill pins the spillable buffer's FIFO contract across
// the memory/disk boundary: records past the in-memory cap round-trip
// through the spill file byte-identically and in arrival order.
func TestRecordSpoolSpill(t *testing.T) {
	spool := newRecordSpool(4)
	defer spool.Close()
	var want []dataset.Record
	for i := 0; i < 11; i++ {
		r := dataset.Record{ID: fmt.Sprintf("r%02d", i), Fields: []dataset.Field{
			{Name: "name", Value: fmt.Sprintf("item %d", i)},
			{Name: "note", Value: `quotes " and | separators`},
		}}
		want = append(want, r)
		if err := spool.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if spool.Len() != 11 {
		t.Fatalf("Len = %d, want 11", spool.Len())
	}
	var got []dataset.Record
	for {
		r, ok, err := spool.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("spool replay differs:\nwant %v\ngot  %v", want, got)
	}
	if spool.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", spool.Len())
	}
}

// TestWidthResolution pins the derived width: Parallelism ×
// max(Batch, 1), what one round trip carries (8 unbatched at the default
// parallelism), and a positive Chunk pins it. Adaptive changes nothing:
// one width per config, on every edge of the run.
func TestWidthResolution(t *testing.T) {
	for _, tc := range []struct {
		cfg   ExecConfig
		width int
	}{
		{ExecConfig{}, 8},
		{ExecConfig{Batch: 1}, 8},
		{ExecConfig{Parallelism: 2}, 2},
		{ExecConfig{Batch: 8}, 64},
		{ExecConfig{Batch: 16}, 128},
		{ExecConfig{Batch: 4, Parallelism: 2}, 8},
		{ExecConfig{Batch: 8, Parallelism: 16}, 128},
		{ExecConfig{Chunk: 3, Batch: 8, Adaptive: true}, 3},
		{ExecConfig{Batch: 8, Adaptive: true}, 64},
		{ExecConfig{Adaptive: true}, 8},
		{ExecConfig{Batch: 4, Parallelism: 1, Adaptive: true}, 4},
		{ExecConfig{Batch: 100, Adaptive: true}, 800},
	} {
		if got := tc.cfg.width(); got != tc.width {
			t.Errorf("%+v: width = %d, want %d", tc.cfg, got, tc.width)
		}
	}
}

// TestAdaptiveSegments pins segment detection: adjacent sole-consumer
// filters group, anything else breaks the chain.
func TestAdaptiveSegments(t *testing.T) {
	filter := func(name, input string) StageSpec {
		return StageSpec{Name: name, Kind: KindFilter, Predicate: "p", Input: input}
	}
	chain, err := normalize([]StageSpec{
		filter("a", "source"), filter("b", "a"), filter("c", "b"),
		{Name: "cat", Kind: KindCategorize, Categories: []string{"x"}, Input: "c"},
		filter("d", "cat"), filter("e", "d"),
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := adaptiveSegments(chain)
	if len(segs) != 2 || !reflect.DeepEqual(segs[0], []int{0, 1, 2}) || !reflect.DeepEqual(segs[1], []int{4, 5}) {
		t.Fatalf("segments = %v, want [[0 1 2] [4 5]]", segs)
	}

	// A second consumer — main input or side table — breaks the chain.
	branched, err := normalize([]StageSpec{
		filter("a", "source"), filter("b", "a"),
		{Name: "match", Kind: KindJoin, Side: "a", Strategy: "nested-loop", Input: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if segs := adaptiveSegments(branched); len(segs) != 0 {
		t.Fatalf("filter with a side-consumed output joined a segment: %v", segs)
	}

	single, err := normalize([]StageSpec{filter("a", "source")})
	if err != nil {
		t.Fatal(err)
	}
	if segs := adaptiveSegments(single); len(segs) != 0 {
		t.Fatalf("lone filter formed a segment: %v", segs)
	}
}

// TestAdaptiveMatchesMaterialized is the tentpole property test: on the
// sim model, an adaptive run (segment replanning) produces byte-identical
// final tables and scalars to the materialized sequential reference
// (RunSequential) and to fixed-chunk streaming runs at widths 1, 3, and
// 16, across the widths Batch derives.
func TestAdaptiveMatchesMaterialized(t *testing.T) {
	tables, _ := SourceSpec{Dataset: "restaurants", Records: 14, Train: 30, Seed: 9}.Tables()
	for i, r := range tables["source"] {
		tables["source"][i] = r.WithoutField("city")
	}
	// Two adjacent hintless filters form a replannable segment; the
	// surrounding stages exercise barrier (resolve, count) and streaming
	// (impute) paths.
	spec := Spec{Stages: []StageSpec{
		{Name: "entities", Kind: KindResolve, Strategy: "pairwise", InvariantFields: []string{"type"}},
		{Name: "served", Kind: KindFilter, Field: "type", Predicate: "the restaurant serves food"},
		{Name: "named", Kind: KindFilter, Field: "name", Predicate: "the name is pronounceable"},
		{Name: "city", Kind: KindImpute, TargetField: "city", Side: "train", Strategy: "hybrid", Neighbors: 3, Examples: 2},
		{Name: "n", Kind: KindCount, Field: "city", Predicate: "q", Strategy: "per-item"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg ExecConfig) *Result {
		t.Helper()
		cfg.Model = sim.NewNamed("sim-gpt-3.5-turbo")
		res, err := p.Run(context.Background(), cfg, tables)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, err := p.RunSequential(context.Background(), SequentialConfig{Model: sim.NewNamed("sim-gpt-3.5-turbo")}, tables)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 16} {
		got := run(ExecConfig{Chunk: chunk})
		if !reflect.DeepEqual(want.Tables, got.Tables) || !reflect.DeepEqual(want.Scalars, got.Scalars) {
			t.Fatalf("fixed chunk %d differs from the sequential reference", chunk)
		}
	}
	// Batch 0 runs at width 8, Batch 2 at 16, Batch 16 at 128; Chunk 16
	// pins the width under Adaptive.
	for _, cfg := range []ExecConfig{
		{Adaptive: true}, {Adaptive: true, Batch: 2}, {Adaptive: true, Batch: 16}, {Adaptive: true, Chunk: 16},
	} {
		got := run(cfg)
		// Segment-internal tables may legitimately differ when the order
		// was revised mid-run; everything downstream of the segment — and
		// the segment's own output — must be byte-identical.
		for _, stage := range []string{"entities", "named", "city", "n"} {
			if !reflect.DeepEqual(want.Tables[stage], got.Tables[stage]) {
				t.Fatalf("adaptive batch %d chunk %d: stage %q table differs from the sequential reference",
					cfg.Batch, cfg.Chunk, stage)
			}
		}
		if !reflect.DeepEqual(want.Scalars, got.Scalars) {
			t.Fatalf("adaptive batch %d chunk %d: scalars %v != %v", cfg.Batch, cfg.Chunk, got.Scalars, want.Scalars)
		}
	}
}

// TestAdaptiveSideInputOverlap is the overlap contract, with Adaptive
// off and on alike: a streamable join whose right side is an earlier
// stage's output starts matching buffered main-input records as soon as
// the side table lands — while the main-input producer is still working.
// The model blocks the producer's last record until a join comparison
// arrives; a drain-first join would deadlock here (guarded by a
// timeout), exactly like the plain streaming overlap test.
func TestAdaptiveSideInputOverlap(t *testing.T) {
	names := dataset.FlavorNames()
	// splitModel: "poolpred" keeps even-indexed flavors, "feedpred" keeps
	// odd ones (join inputs must not share IDs); gate, when non-nil,
	// blocks feedpred's evaluation of the last flavor until released.
	splitModel := func(name string, gate func(ctx context.Context) error, onJoin func()) llm.Func {
		return llm.Func{ModelName: name, Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
			if strings.Contains(req.Prompt, "satisfy the condition") {
				idx := -1
				for i, n := range names[:4] {
					if strings.Contains(req.Prompt, n) {
						idx = i
						break
					}
				}
				feed := strings.Contains(req.Prompt, "feedpred")
				if feed && idx == 3 && gate != nil {
					if err := gate(ctx); err != nil {
						return llm.Response{}, err
					}
				}
				if idx >= 0 && (idx%2 == 1) == feed {
					return unit("Yes"), nil
				}
				return unit("No"), nil
			}
			if onJoin != nil {
				onJoin()
			}
			return unit("Yes"), nil
		}}
	}
	spec := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Field: "name", Predicate: "poolpred", Input: "source"},
		{Name: "feed", Kind: KindFilter, Field: "name", Predicate: "feedpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "pool", Strategy: "nested-loop", Input: "feed"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Equivalence: the overlapped run must match the sequential reference
	// of the same spec record for record.
	seq, err := p.RunSequential(context.Background(), SequentialConfig{Model: splitModel("calm", nil, nil)}, flavorTables(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		release := make(chan struct{})
		var joins atomic.Int32
		gate := func(ctx context.Context) error {
			select {
			case <-release:
				return nil
			case <-time.After(10 * time.Second):
				t.Errorf("adaptive %v: feed's last record ran before any join comparison: side materialization did not overlap the main path", adaptive)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		onJoin := func() {
			if joins.Add(1) == 1 {
				close(release)
			}
		}
		res, err := p.Run(context.Background(), ExecConfig{
			Model: splitModel("overlap-side", gate, onJoin), Adaptive: adaptive, Chunk: 1, Parallelism: 1,
		}, flavorTables(4))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tables["match"]) != 4 {
			t.Fatalf("adaptive %v: match table has %d rows, want 2x2", adaptive, len(res.Tables["match"]))
		}
		if want, got := seq.Tables["match"], res.Tables["match"]; !reflect.DeepEqual(want, got) {
			t.Fatalf("adaptive %v: overlapped side join differs from the sequential reference:\nwant %v\ngot  %v",
				adaptive, want, got)
		}
	}
}

// TestAdaptiveSideOverlapFailureNoLeak covers the buffering path's
// failure contract, mirroring TestStreamingCancellationNoLeak: a join
// erroring while overlapped with its producers must cancel the run,
// surface its own stage as the root cause, and leave no goroutine behind
// (spool feeder included). Run with -race in CI.
func TestAdaptiveSideOverlapFailureNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	names := dataset.FlavorNames()
	model := llm.Func{ModelName: "side-poison", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "satisfy the condition") {
			idx := -1
			for i, n := range names[:6] {
				if strings.Contains(req.Prompt, n) {
					idx = i
					break
				}
			}
			// Disjoint halves, so the join's inputs share no IDs.
			if idx >= 0 && (idx%2 == 1) == strings.Contains(req.Prompt, "feedpred") {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return llm.Response{}, fmt.Errorf("join comparison explosion")
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Field: "name", Predicate: "poolpred", Input: "source"},
		{Name: "feed", Kind: KindFilter, Field: "name", Predicate: "feedpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "pool", Strategy: "nested-loop", Input: "feed"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		_, err = p.Run(context.Background(), ExecConfig{Model: model, Adaptive: adaptive, Chunk: 1, Parallelism: 1}, flavorTables(6))
		if err == nil || !strings.Contains(err.Error(), "join comparison explosion") || !strings.Contains(err.Error(), `"match"`) {
			t.Fatalf("adaptive %v: err = %v, want the join stage's root cause", adaptive, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				break
			} else if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("adaptive %v: goroutines leaked: %d before run, %d after\n%s", adaptive, before, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestAdaptiveSideOverlapSpillFailureNoLeak is the spill-path variant:
// the spool's in-memory ring is shrunk so the main input spills to disk,
// and the join then fails mid-replay — while the feeder goroutine still
// holds spilled records to pop. The run must surface the root cause with
// no leaked goroutine and no race between the feeder's reads and the
// spool teardown (this exact interleaving once raced under -race).
func TestAdaptiveSideOverlapSpillFailureNoLeak(t *testing.T) {
	sideSpoolMem = 1
	defer func() { sideSpoolMem = 0 }()
	before := runtime.NumGoroutine()
	names := dataset.FlavorNames()
	model := llm.Func{ModelName: "spill-poison", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "satisfy the condition") {
			idx := -1
			for i, n := range names[:8] {
				if strings.Contains(req.Prompt, n) {
					idx = i
					break
				}
			}
			if idx >= 0 && (idx%2 == 1) == strings.Contains(req.Prompt, "feedpred") {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return llm.Response{}, fmt.Errorf("join comparison explosion")
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "pool", Kind: KindFilter, Field: "name", Predicate: "poolpred", Input: "source"},
		{Name: "feed", Kind: KindFilter, Field: "name", Predicate: "feedpred", Input: "source"},
		{Name: "match", Kind: KindJoin, Field: "name", Side: "pool", Strategy: "nested-loop", Input: "feed"},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		_, err = p.Run(context.Background(), ExecConfig{Model: model, Adaptive: adaptive, Chunk: 1, Parallelism: 1}, flavorTables(8))
		if err == nil || !strings.Contains(err.Error(), "join comparison explosion") || !strings.Contains(err.Error(), `"match"`) {
			t.Fatalf("adaptive %v: err = %v, want the join stage's root cause", adaptive, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				break
			} else if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("adaptive %v: goroutines leaked: %d before run, %d after\n%s", adaptive, before, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestMidRunReplanReordersFilters is the mid-run re-optimization pin:
// two hintless filters start in user order (estimates tie at the 0.5
// prior), the observed keep rates diverge within a few chunks, and the
// segment flips the genuinely tighter filter to the front for the
// not-yet-started remainder of the stream — spending fewer loose-filter
// evaluations than the static order would, with the final table
// unchanged.
func TestMidRunReplanReordersFilters(t *testing.T) {
	names := dataset.FlavorNames()
	model := llm.Func{ModelName: "replan", Fn: func(ctx context.Context, req llm.Request) (llm.Response, error) {
		if strings.Contains(req.Prompt, "tightpred") {
			if strings.Contains(req.Prompt, names[0]) {
				return unit("Yes"), nil
			}
			return unit("No"), nil
		}
		return unit("Yes"), nil
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "loose", Kind: KindFilter, Field: "name", Predicate: "loosepred"},
		{Name: "tight", Kind: KindFilter, Field: "name", Predicate: "tightpred"},
	}}
	n := 16
	run := func(adaptive bool) *Result {
		t.Helper()
		p, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background(), ExecConfig{
			Model: model, Adaptive: adaptive, Chunk: 1, Parallelism: 1,
		}, flavorTables(n))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static, adaptive := run(false), run(true)
	if !reflect.DeepEqual(static.Tables["tight"], adaptive.Tables["tight"]) {
		t.Fatalf("replanned segment output differs:\nstatic   %v\nadaptive %v",
			static.Tables["tight"], adaptive.Tables["tight"])
	}
	if len(adaptive.Tables["tight"]) != 1 {
		t.Fatalf("segment kept %d records, want 1", len(adaptive.Tables["tight"]))
	}
	tail := stageByName(t, adaptive, "tight")
	if !strings.Contains(tail.Detail, "order revised") || strings.Contains(tail.Detail, "revised 0 times") {
		t.Fatalf("segment never replanned: detail = %q", tail.Detail)
	}
	// After the flip, the loose filter only sees records the tight filter
	// kept — strictly fewer evaluations than the static order's full n.
	loose := stageByName(t, adaptive, "loose")
	if loose.In >= n {
		t.Fatalf("loose filter evaluated %d records, want fewer than %d after the replan", loose.In, n)
	}
	if st := stageByName(t, static, "loose"); st.In != n {
		t.Fatalf("static run's loose filter evaluated %d, want all %d", st.In, n)
	}

}

func stageByName(t *testing.T, res *Result, name string) StageReport {
	t.Helper()
	for _, s := range res.Stages {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no stage %q in report", name)
	return StageReport{}
}

// TestNextChunkCancellation pins recvChunk, the receive of the next
// chunk: a cancelled context must win the next chunk boundary promptly
// whether the upstream is idle (nothing buffered, the stage is blocked on
// its next chunk) or flooding (chunks always ready, so the select could
// keep choosing the receive case forever without the explicit entry poll).
func TestNextChunkCancellation(t *testing.T) {
	// Idle upstream: block on an open, empty channel; cancel mid-wait.
	idle := make(chan []dataset.Record)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := recvChunk(ctx, idle)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("recvChunk returned nil on a cancelled idle upstream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recvChunk did not return promptly after cancellation during an idle upstream")
	}

	// Busy upstream: the channel always has a chunk ready, and the context
	// is already cancelled — the entry poll must still surface the
	// cancellation instead of receiving another chunk.
	busy := make(chan []dataset.Record, 4)
	for i := 0; i < 4; i++ {
		busy <- []dataset.Record{{ID: fmt.Sprintf("r%d", i)}}
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	for i := 0; i < 4; i++ {
		if chunk, _, err := recvChunk(cctx, busy); err == nil {
			t.Fatalf("recvChunk received %d records under a cancelled context", len(chunk))
		}
	}
}

// TestAdaptiveIdleUpstreamCancellation is the end-to-end version: cancel
// the caller's context while a downstream stage idles in recvChunk
// waiting for a slow producer, and the whole run must return promptly.
func TestAdaptiveIdleUpstreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	model := llm.Func{ModelName: "slow", Fn: func(mctx context.Context, req llm.Request) (llm.Response, error) {
		// The filter never answers: downstream categorize idles in
		// recvChunk the whole run.
		select {
		case <-mctx.Done():
			return llm.Response{}, mctx.Err()
		case <-time.After(30 * time.Second):
			return unit("Yes"), nil
		}
	}}
	spec := Spec{Stages: []StageSpec{
		{Name: "keep", Kind: KindFilter, Predicate: "p"},
		{Name: "cat", Kind: KindCategorize, Categories: []string{"a"}},
	}}
	p, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.Run(ctx, ExecConfig{Model: model, Adaptive: true, Parallelism: 1}, flavorTables(4))
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %s to notice cancellation with an idle upstream", elapsed)
	}
}
