package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one invocation's outcome. Workloads record every
// metric they can; final keeps the end-to-end or the per-layer set.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
	problems  []string // correctness failures, printed to stderr
	traced    bool
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect. Only the first few problems are kept.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd and perLayer list every metric BENCHMARK.json declares, in its
// order. final refuses to print a result that misses one.
var endToEnd = []string{"cpu_us_per_op", "setup_s", "peak_heap_mb"}

var cpuBuckets = []string{
	"server", "trace", "cluster", "fleet", "txn", "host", "core", "nand",
	"memtable", "kv", "bench", "runtime", "net", "other",
}

var perLayer = func() []string {
	names := []string{
		"client.failed_frac", "client.commands", "client.ops_per_s",
		"client.get_p50_us", "client.get_p99_us", "client.set_p50_us", "client.set_p99_us",
		"device.virt_kiops", "device.virt_read_p99_us", "device.write_amp", "device.user_write_bytes",
		"server.incr_p50_us", "server.incr_p99_us", "server.incr_samples",
		"server.ns_per_op", "server.self_ns_per_op", "server.ops", "server.busy", "server.timeouts",
		"server.virt_latency_mean_us", "server.virt_queue_wait_mean_us",
		"trace.blame_calls", "trace.blame_ns_per_call", "trace.events_per_op", "trace.dropped_events",
		"trace.ns_per_op", "trace.delta_ns_per_op",
		"trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ops_per_s",
		"cluster.ns_per_op", "cluster.allocs_per_op", "cluster.delta_ns_per_op", "cluster.shard_imbalance",
		"fleet.ns_per_op", "fleet.allocs_per_op", "fleet.delta_ns_per_op", "fleet.replica_writes_per_put",
		"txn.incr_ns_per_op", "txn.incr_allocs_per_op", "txn.delta_ns_per_op", "txn.commits",
		"txn.conflict_ratio", "txn.retries_per_commit", "txn.split_ops_frac", "txn.split_merges",
		"txn.stale_counter_gets", "txn.counters",
		"host.ns_per_op", "host.allocs_per_op", "host.virt_service_p99_us", "ladder.ops",
		"core.tree_compactions", "core.log_compactions", "core.chained_compactions",
		"core.gc_runs", "core.gc_relocations", "core.flash_reads_per_get", "core.gets",
		"nand.page_reads_per_op", "nand.page_writes_per_put", "nand.erases", "nand.puts",
		"workload.gen_ns_per_op",
		"go.allocs_per_op", "go.alloc_bytes_per_op", "go.gc_cycles", "go.gc_pause_ms",
		"cpu.samples",
	}
	for _, b := range cpuBuckets {
		names = append(names, "cpu."+b)
	}
	return names
}()

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// final selects the metric set for the run mode. A declared metric the
// workload did not record is a benchmark bug and marks the run incorrect.
func (r *result) final() output {
	names := endToEnd
	if r.traced {
		names = perLayer
	}
	out := output{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			r.fail("metric %s was not recorded", n)
			out.Correct = false
			continue
		}
		out.Metrics[n] = m
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	return out
}

func (r *result) printSummary(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
}

// latencies collects wall-clock latency samples in nanoseconds, split into
// segments (slices of a pass, or server rounds). A percentile is taken per
// segment and the median over segments reported, so one segment disturbed
// by the machine cannot move the result.
type latencies struct {
	ns   []int64
	ends []int // segment end offsets into ns
}

func (l *latencies) add(d time.Duration) { l.ns = append(l.ns, int64(d)) }

// cut closes the current segment.
func (l *latencies) cut() {
	if n := len(l.ends); (n == 0 && len(l.ns) > 0) || (n > 0 && l.ends[n-1] < len(l.ns)) {
		l.ends = append(l.ends, len(l.ns))
	}
}

// segmentQuantilesUS returns each segment's nearest-rank q-quantile, in
// microseconds.
func (l *latencies) segmentQuantilesUS(q float64) []float64 {
	l.cut()
	var per []float64
	start := 0
	for _, end := range l.ends {
		per = append(per, quantile(l.ns[start:end], q)/1e3)
		start = end
	}
	return per
}

// quantileUS returns the median over segments of each segment's
// nearest-rank q-quantile, in microseconds.
func (l *latencies) quantileUS(q float64) float64 { return median(l.segmentQuantilesUS(q)) }

// latencySummary keeps the per-segment percentiles of many latency sets,
// so each set's samples can be freed once it is summarised.
type latencySummary struct {
	p50, p99 []float64
	samples  int
}

func (s *latencySummary) add(l *latencies) {
	s.p50 = append(s.p50, l.segmentQuantilesUS(0.50)...)
	s.p99 = append(s.p99, l.segmentQuantilesUS(0.99)...)
	s.samples += len(l.ns)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// recordLatencies reports a latency class's median and p99, each the
// median over segments, with the sample count, so a reader can judge how
// many samples lie beyond the p99.
func (r *result) recordLatencies(prefix string, s *latencySummary) {
	r.set(prefix+"_p50_us", median(s.p50), "us")
	r.set(prefix+"_p99_us", median(s.p99), "us")
	r.note("%s: %d wall-latency samples in %d segments (%d beyond p99)", prefix, s.samples, len(s.p50), s.samples/100)
}

// heapSampler tracks the peak live heap while it runs: the bytes the most
// recent garbage collection found reachable. Unlike the allocated-heap
// gauge, it does not swing with where a collection happens to fall. It
// reads runtime/metrics, which does not stop the world.
type heapSampler struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	peak   uint64
}

const heapObjects = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heapSampler{cancel: cancel}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	h.cancel()
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// memDelta reads runtime.MemStats around a measured section.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns mallocs, allocated bytes, GC cycles and GC pause time since
// start.
func (m *memDelta) stop() (mallocs, bytes, gcs uint64, pause time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc,
		uint64(after.NumGC - m.before.NumGC), time.Duration(after.PauseTotalNs - m.before.PauseTotalNs)
}

// processCPU returns the CPU time the process has used, user plus system,
// in every thread (the Go runtime's collector included). A kernel with
// paravirtual steal accounting leaves out the time the hypervisor gave to
// other guests, so on a shared host this moves far less than wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects garbage left by a previous phase so it is not charged to
// the next one.
func settle() {
	runtime.GC()
	runtime.GC()
}
