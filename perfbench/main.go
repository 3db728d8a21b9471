// Command perfbench is the repository's end-to-end benchmark. It drives
// the engine only through public entry points — pipeline.Run for the ETL
// workloads, server.Server.Handler for the serving workload — and reads
// the counters the program already exports. From the repository root:
//
//	bash perfbench/run.sh --workload etl-remote --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no probes in the
// model stack; with --trace 1 it runs a short untraced phase, then a
// traced one with a boundary probe above the upstream and a timing
// embedder, and reports the per-layer metrics, the wrapper replay ledger
// and the tracing overhead. The last line of standard output is one JSON
// object; a human summary, the machine fingerprint and the span file's
// path go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Two user-facing numbers are reported with the traced run
// instead, because the benchmark's bounds cannot hold them: failed_share
// reads 0 on a healthy run, so its complement completed_share is the
// bounded metric; and job_p95_ms tracks the host's CPU steal, whose
// episodes spread it by 25-47% between runs of the same code on a shared
// 2-vCPU virtual machine.
var endToEnd = []metricDef{
	{"job_p50_ms", "ms"},
	{"records_per_s", "records/s"},
	{"sustained_jobs_per_s", "jobs/s"},
	{"completed_share", "ratio"},
	{"upstream_calls_per_job", "calls"},
	{"cost_usd_per_job", "usd"},
	{"answer_accuracy", "ratio"},
	{"cpu_ms_per_job", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// ledgerEntries are the wrapper replay ledger's rows, each reported in
// ns and allocs per call.
var ledgerEntries = []string{
	"workflow.budget", "llm.counting", "workflow.attribution", "workflow.cache_hit",
	"workflow.miss", "resil.passthrough", "llm.faults_passthrough",
	"workflow.stack_hit", "workflow.stack_miss",
}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"llm.calls_per_job", "calls"},
		{"llm.prompt_tokens_per_job", "tokens"},
		{"llm.completion_tokens_per_job", "tokens"},
		{"llm.us_per_call", "us"},
		{"llm.busy_ms_per_job", "ms"},
		{"llm.attempts_per_call", "ratio"},
		{"llm.inflight_mean", "calls"},
		{"llm.covered_share", "ratio"},
		{"llm.duplicate_calls", "calls"},
		{"workflow.cache_hit_ratio", "ratio"},
		{"workflow.coalesced_per_job", "count"},
		{"workflow.envelopes_per_job", "count"},
		{"workflow.solo_retries_per_job", "count"},
	}
	for _, e := range ledgerEntries {
		defs = append(defs, metricDef{e + "_ns", "ns"}, metricDef{e + "_allocs", "allocs"})
	}
	defs = append(defs,
		metricDef{"workflow.batch_ns_per_task", "ns"},
		metricDef{"workflow.batch_allocs_per_task", "allocs"},
		metricDef{"workflow.map_ns_per_task", "ns"},
		metricDef{"workflow.cachelog_replay_ms", "ms"},
		metricDef{"workflow.cachelog_records", "count"},
		metricDef{"resil.retries_per_job", "count"},
		metricDef{"resil.healed_share", "ratio"},
	)
	for _, st := range restaurantStages {
		p := "pipeline." + st
		defs = append(defs,
			metricDef{p + ".service_ms", "ms"}, metricDef{p + ".wait_ms", "ms"},
			metricDef{p + ".records_in", "count"}, metricDef{p + ".records_out", "count"})
	}
	return append(defs,
		metricDef{"pipeline.replay_job_ms", "ms"},
		metricDef{"pipeline.compile_us", "us"},
		metricDef{"embed.embeds_per_job", "count"},
		metricDef{"embed.us_per_embed", "us"},
		metricDef{"embed.index_builds_per_job", "count"},
		metricDef{"embed.index_reuses_per_job", "count"},
		metricDef{"embed.warm_loads", "count"},
		metricDef{"server.queue_wait_p95_ms", "ms"},
		metricDef{"server.run_p50_ms", "ms"},
		metricDef{"server.refused_share", "ratio"},
		metricDef{"server.free_serve_share", "ratio"},
		metricDef{"server.backlog_max", "jobs"},
		metricDef{"server.drain_ms", "ms"},
		metricDef{"proc.cpu_util", "ratio"},
		metricDef{"proc.alloc_mb_per_job", "MB"},
		metricDef{"proc.gc_cpu_share", "ratio"},
		metricDef{"proc.goroutines_peak", "count"},
		metricDef{"bench.lag_p95_ms", "ms"},
		metricDef{"bench.trace_overhead_share", "ratio"},
		metricDef{"bench.job_self_ms", "ms"},
		metricDef{"failed_share", "ratio"},
		metricDef{"job_p95_ms", "ms"},
	)
}

// result is one run's outcome. values holds every metric the workload
// measured; a per-layer metric the workload does not exercise is absent
// and reported as 0.
type result struct {
	attempted, failed int
	correct           bool
	values            map[string]float64
	notes             []string
}

func newResult() *result { return &result{correct: true, values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with the reason.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.note("CHECK FAILED: "+format, args...)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is where the run may write: state dirs and the span file.
	dir string
}

// workloads are the benchmark's workloads. BENCHMARK.json gates
// etl-remote and serve-mixed; etl-cold is CPU-bound, so its wall-clock
// metrics follow the host's CPU steal (20-28% spread between runs of the
// same code on a shared 2-vCPU host) and it runs only when asked for.
var workloads = map[string]func(options) (*result, error){
	"etl-cold":    func(o options) (*result, error) { return runETL(etlCold, o) },
	"etl-remote":  func(o options) (*result, error) { return runETL(etlRemote, o) },
	"serve-mixed": runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "etl-cold, etl-remote or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for state and span files")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload etl-cold|etl-remote|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "fingerprint:", fingerprint())
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := render(res, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// render prints the human summary to stderr and returns the JSON line.
func render(res *result, trace bool) (string, error) {
	defs := endToEnd
	if trace {
		defs = perLayerDefs()
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]metric)}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		switch {
		case !ok && !trace:
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case !ok:
			fmt.Fprintf(os.Stderr, "  %-40s %14s %s (not exercised by this workload)\n", d.name, "0", d.unit)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		default:
			fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", d.name, v, d.unit)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d, correct %t\n", res.attempted, res.failed, res.correct)
	b, err := json.Marshal(out)
	return string(b), err
}

// fingerprint identifies the machine and toolchain a run measured.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("goarch=%s numcpu=%d gomaxprocs=%d cpu=%q go=%s",
		runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// procSample is a point-in-time reading of the process's resource use.
type procSample struct {
	at              time.Time
	cpu             time.Duration
	gcCPU, cpuTotal float64
	allocBytes      uint64
}

var procMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetrics))
	copy(s, procMetrics)
	metrics.Read(s)
	return procSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      s[0].Value.Float64(),
		cpuTotal:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Maxrss is in KiB on Linux
}

// setProc sets the proc.* per-layer metrics for the interval a..b.
func setProc(r *result, a, b procSample, jobs int, goroutinesPeak int) {
	wall := b.at.Sub(a.at)
	r.set("proc.cpu_util", float64(b.cpu-a.cpu)/(float64(wall)*float64(runtime.GOMAXPROCS(0))))
	if total := b.cpuTotal - a.cpuTotal; total > 0 {
		r.set("proc.gc_cpu_share", (b.gcCPU-a.gcCPU)/total)
	}
	if jobs > 0 {
		r.set("proc.alloc_mb_per_job", float64(b.allocBytes-a.allocBytes)/float64(jobs)/(1<<20))
	}
	r.set("proc.goroutines_peak", float64(goroutinesPeak))
}

// goroutineSampler tracks the peak goroutine count until stopped.
func goroutineSampler() (stop func() int) {
	done := make(chan struct{})
	peak := make(chan int)
	go func() {
		max := runtime.NumGoroutine()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if n := runtime.NumGoroutine(); n > max {
					max = n
				}
			case <-done:
				peak <- max
				return
			}
		}
	}()
	return func() int {
		close(done)
		return <-peak
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minP95Samples is the smallest sample with ten values beyond its p95.
const minP95Samples = 200

// setP95 sets job_p95_ms from per-job latencies in ms, noting the sample
// count and whether ten samples lie beyond the percentile.
func setP95(r *result, lat []float64) {
	r.set("job_p95_ms", quantile(lat, 0.95))
	r.note("p95 sample: %d jobs", len(lat))
	if len(lat) < minP95Samples {
		r.note("p95 rests on %d jobs, fewer than %d: under ten lie beyond it", len(lat), minP95Samples)
	}
}

// runDir empties and returns the directory for this run's files. It is
// named after the workload and seed, so repeated runs reuse it.
func runDir(o options) (string, error) {
	dir := filepath.Join(o.dir, fmt.Sprintf("run-%s-%d", o.workload, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// writeTrace writes the spans next to the run's other files.
func writeTrace(rec *recorder, dir string, o options) {
	path := filepath.Join(dir, "spans.tsv")
	header := fmt.Sprintf("workload=%s seed=%d %s", o.workload, o.seed, fingerprint())
	if err := rec.writeSpans(path, header); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "spans:", path)
}
