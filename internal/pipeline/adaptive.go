package pipeline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/workflow"
)

// The adaptive runtime (ExecConfig.Adaptive) re-optimizes a running
// plan: runs of adjacent commutable filter stages execute as one segment
// whose internal order is revised at chunk boundaries as observed keep
// rates refine the optimizer's probed or hinted selectivity estimates.
// The evidence is counts and the boundaries are cut from the input, so
// every revision is a function of the input, and temperature-0 results
// are identical to the fixed plan.

// stageStats accumulates one stage's streaming timings; the stage
// goroutine owns it and flushes the total into the run's Attribution
// ledger when the stage finishes, where the run report reads it back.
type stageStats struct {
	stage string
	t     workflow.StageTiming
}

func (s *stageStats) observe(wait, service time.Duration, records int) {
	if s == nil {
		return
	}
	s.t.Wait += wait
	s.t.Service += service
	s.t.Chunks++
	s.t.Records += records
}

// addWait and addService accumulate time outside any chunk — the
// side-overlap buffering wait, a segment tail's emission backpressure —
// without inflating the chunk count.
func (s *stageStats) addWait(d time.Duration) {
	if s != nil {
		s.t.Wait += d
	}
}

func (s *stageStats) addService(d time.Duration) {
	if s != nil {
		s.t.Service += d
	}
}

func (s *stageStats) flush(attr *workflow.Attribution) {
	if s == nil || s.t == (workflow.StageTiming{}) {
		return
	}
	attr.ObserveTiming(s.stage, s.t)
}

// selectivityPriorWeight is how many pseudo-records the optimizer's
// estimate (a probe measurement or a spec hint) counts for when blended
// with live observations — the probe's default sample size, so a probed
// estimate and an equally sized observation weigh the same.
const selectivityPriorWeight = 8

// adaptiveSegments finds the maximal runs of ≥2 consecutive filter stages
// the adaptive executor may re-order mid-run: each link must be the sole
// consumer (main input or side table) of its predecessor — the same
// sole-consumer rule the static optimizer's pushdown uses — and every
// member is a filter, which commutes record-wise with any other filter
// (filters write no fields, and every filter policy decides per item, so
// the set surviving the run is order-independent at temperature 0).
// Returned segments index into the normalized spec slice.
func adaptiveSegments(specs []StageSpec) [][]int {
	var segments [][]int
	for i := 0; i < len(specs); i++ {
		if specs[i].Kind != KindFilter {
			continue
		}
		run := []int{i}
		for j := i + 1; j < len(specs); j++ {
			prev := specs[run[len(run)-1]]
			if specs[j].Kind != KindFilter || specs[j].Input != prev.Name {
				break
			}
			if cs := consumers(specs, prev.Name); len(cs) != 1 {
				break
			}
			run = append(run, j)
		}
		if len(run) >= 2 {
			segments = append(segments, run)
		}
		i = run[len(run)-1]
	}
	return segments
}

// segMember is one filter inside a running segment, with its live
// selectivity evidence.
type segMember struct {
	st   filterStage
	spec StageSpec
	out  *streamOut

	seen, kept, asks int
}

// estimate blends the member's prior selectivity (probe measurement or
// spec hint; 0.5 when hintless) with what the segment has observed so far.
func (m *segMember) estimate() float64 {
	return core.RefineSelectivity(m.spec.Selectivity, selectivityPriorWeight, m.seen, m.kept)
}

// segmentOrder returns member indices sorted most-selective-first by the
// current estimates, stable on spec position so ties keep the user's (or
// the static optimizer's) order and the result is deterministic for a
// given evidence state.
func segmentOrder(members []*segMember) []int {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return members[order[a]].estimate() < members[order[b]].estimate()
	})
	return order
}

func sameOrder(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runSegment drives one commutable filter segment as a single streaming
// unit: every chunk flows through all member filters in the segment's
// current order, evidence accumulates per member, and at each chunk
// boundary the order may be revised for chunks not yet started — in-flight
// work is never re-ordered, and the segment's final output is identical to
// any fixed order at temperature 0. Each member's operator calls run under
// its own stage tag, so per-stage attribution is preserved.
func (p *Pipeline) runSegment(ctx context.Context, cancel context.CancelFunc, rt *execRuntime,
	state *runState, outs map[string]*streamOut, in <-chan []dataset.Record, tables map[string][]dataset.Record,
	idxs []int) {
	members := make([]*segMember, len(idxs))
	for i, j := range idxs {
		spec := p.specs[j]
		members[i] = &segMember{st: p.stages[j].(filterStage), spec: spec, out: outs[spec.Name]}
	}
	tail := members[len(members)-1]
	defer func() {
		for _, m := range members {
			close(m.out.done)
			m.out.closeSubs()
		}
	}()
	up := outs[members[0].spec.Input]
	env := &Env{Engine: rt.engine, Budget: rt.budget, Tables: tables, run: state}
	// One timing ledger per member: each filter's service time and record
	// flow land under its own stage name, the wait for each chunk under
	// whichever member ran first (it is the one actually blocked on
	// upstream), and emission backpressure under the tail.
	stats := make([]*stageStats, len(members))
	for i, m := range members {
		stats[i] = &stageStats{stage: m.spec.Name}
	}
	defer func() {
		for _, s := range stats {
			s.flush(rt.attr)
		}
	}()

	order := segmentOrder(members)
	consumed, reorders := 0, 0
	for {
		start := time.Now()
		chunk, ok, err := recvChunk(ctx, in)
		wait := time.Since(start)
		if err != nil {
			members[0].out.err = err
			return
		}
		if !ok {
			break
		}
		consumed += len(chunk)
		recs := chunk
		for pos, mi := range order {
			m := members[mi]
			if len(recs) == 0 {
				break
			}
			eval := time.Now()
			kept, asks, err := m.st.filter(workflow.TagStage(ctx, m.spec.Name), env, recs)
			if err != nil {
				m.out.err = fmt.Errorf("stage %q: %w", m.spec.Name, err)
				cancel()
				return
			}
			memberWait := time.Duration(0)
			if pos == 0 {
				memberWait = wait
			}
			stats[mi].observe(memberWait, time.Since(eval), len(recs))
			m.seen += len(recs)
			m.kept += len(kept)
			m.asks += asks
			m.out.consumed += len(recs)
			if m != tail {
				m.out.table = append(m.out.table, kept...)
			}
			recs = kept
		}
		emitStart := time.Now()
		tail.out.table = append(tail.out.table, recs...)
		if !tail.out.send(ctx, recs) {
			members[0].out.err = ctx.Err()
			return
		}
		stats[len(members)-1].addService(time.Since(emitStart))
		// Chunk boundary: revise the order for not-yet-started chunks
		// from the refined estimates. The chunk just finished ran whole
		// under the old order — in-flight work is never re-ordered.
		if next := segmentOrder(members); !sameOrder(next, order) {
			order = next
			reorders++
		}
	}
	<-up.done
	if up.err != nil {
		members[0].out.err = up.err
		return
	}
	if consumed == 0 {
		state.mu.Lock()
		for _, m := range members {
			state.details[m.spec.Name] = detailSkippedEmpty
		}
		state.mu.Unlock()
		return
	}
	for _, m := range members {
		detail := filterDetail(m.kept, m.seen, m.asks)
		if m == tail {
			detail += fmt.Sprintf("; adaptive segment of %d filters, order revised %d times", len(members), reorders)
		}
		env.detail(m.spec.Name, detail)
	}
}
