package main

import (
	"fmt"
	"path/filepath"
	"time"

	"anykey"
	"anykey/internal/workload"
)

// traceDir receives each traced run's span totals, inside the checkout.
var traceDir = filepath.Join(".bench_build", "perfbench-spans")

// ladderKeys caps the keyspace the ladder preloads, so every rung —
// including the RESP server, which preloads over the wire — sets up in
// seconds. ladderOps is the length of the replayed stream.
const (
	ladderKeys = 20_000
	ladderOps  = 20_000
)

// ladder is every rung's outcome for one mix.
type ladder struct {
	host, cluster, fleet, traced rungResult
	txn                          txnResult
	server                       *roundResult
}

// runLadder replays m's stream down the stack. The RESP rung is a traced
// wire round with m's replication (serverRound); the others replay one
// client's stream.
func runLadder(m mix, seed int64, sp *spans, res *result, serverRound func() (*roundResult, error)) (*ladder, error) {
	ops := m.ladderStream(seed, ladderOps)
	l := &ladder{}
	var err error
	if l.host, err = hostRung(m, ops, sp, res); err != nil {
		return nil, fmt.Errorf("host rung: %w", err)
	}
	if l.cluster, err = clusterRung(m, ops, anykey.ReplicationOptions{}, false, "cluster", sp, res); err != nil {
		return nil, fmt.Errorf("cluster rung: %w", err)
	}
	repl2 := anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2}
	if l.fleet, err = clusterRung(m, ops, repl2, false, "fleet", sp, res); err != nil {
		return nil, fmt.Errorf("fleet rung: %w", err)
	}
	if l.traced, err = clusterRung(m, ops, m.repl, true, "traced", sp, res); err != nil {
		return nil, fmt.Errorf("traced rung: %w", err)
	}
	if l.txn, err = txnRung(m, seed, ladderOps/wireConns, res); err != nil {
		return nil, fmt.Errorf("txn rung: %w", err)
	}
	if l.server, err = serverRound(); err != nil {
		return nil, fmt.Errorf("server rung: %w", err)
	}
	for _, s := range l.server.spans {
		sp.absorb(s)
	}
	return l, nil
}

// below returns the rung the server runs on: the R=0 cluster or the fleet.
func (l *ladder) below(m mix) rungResult {
	if m.repl.Factor > 0 {
		return l.fleet
	}
	return l.cluster
}

// record reports the ladder's per-layer metrics.
func (l *ladder) record(m mix, res *result) {
	res.set("ladder.ops", float64(l.host.ops), "count")
	res.set("host.ns_per_op", l.host.ns, "ns")
	res.set("host.allocs_per_op", l.host.allocs, "allocs")

	res.set("cluster.ns_per_op", l.cluster.ns, "ns")
	res.set("cluster.allocs_per_op", l.cluster.allocs, "allocs")
	res.set("cluster.delta_ns_per_op", l.cluster.ns-l.host.ns, "ns")
	res.set("cluster.shard_imbalance", l.cluster.imbalance, "max/mean")

	res.set("fleet.ns_per_op", l.fleet.ns, "ns")
	res.set("fleet.allocs_per_op", l.fleet.allocs, "allocs")
	res.set("fleet.delta_ns_per_op", l.fleet.ns-l.cluster.ns, "ns")
	res.set("fleet.replica_writes_per_put", l.fleet.replicaWritesPerPut, "writes/put")

	below := l.below(m)
	res.set("trace.ns_per_op", l.traced.ns, "ns")
	res.set("trace.delta_ns_per_op", l.traced.ns-below.ns, "ns")
	res.set("trace.blame_calls", float64(l.traced.blameCalls), "count")
	res.set("trace.blame_ns_per_call", l.traced.blameNS, "ns")
	res.set("trace.events_per_op", l.traced.eventsPerOp, "events/op")
	res.set("trace.dropped_events", float64(l.traced.dropped), "count")

	t := l.txn.stats
	res.set("txn.incr_ns_per_op", l.txn.nsPerOp, "ns")
	res.set("txn.incr_allocs_per_op", l.txn.allocsPerOp, "allocs")
	// Below the coordinator an increment is a read and a write.
	res.set("txn.delta_ns_per_op", l.txn.nsPerOp-(below.perKind["get"]+below.perKind["put"]), "ns")
	res.set("txn.commits", float64(t.Commits), "count")
	res.set("txn.conflict_ratio", ratio(t.Conflicts, t.Commits+t.Conflicts), "ratio")
	res.set("txn.retries_per_commit", ratio(t.Retries, t.Commits), "ratio")
	res.set("txn.split_ops_frac", ratio(t.SplitOps, t.Commits), "ratio")
	res.set("txn.split_merges", float64(t.SplitMerges), "count")

	// The server rung: wall cost per command at 2 connections × pipeline
	// 16, against the traced cluster it runs on.
	s := l.server
	serverNS := float64(s.wall) / float64(s.commands)
	res.set("server.ns_per_op", serverNS, "ns")
	res.set("server.self_ns_per_op", serverNS-l.traced.ns, "ns")
	res.set("server.ops", s.after.delta(s.before, "anykeyserver_ops_total"), "count")
	res.set("server.busy", s.after.delta(s.before, "anykeyserver_shed_total"), "count")
	res.set("server.timeouts", s.after.delta(s.before, "anykeyserver_timeouts_total"), "count")
	res.set("server.virt_latency_mean_us", 1e6*s.after.delta(s.before, "anykeyserver_latency_seconds_sum")/
		s.after.delta(s.before, "anykeyserver_latency_seconds_count"), "us")
	res.set("server.virt_queue_wait_mean_us", 1e6*s.after.delta(s.before, "anykeyserver_queue_wait_seconds_sum")/
		s.after.delta(s.before, "anykeyserver_queue_wait_seconds_count"), "us")
	incr := s.lat[cmdIncr]
	res.set("server.incr_p50_us", incr.quantileUS(0.5), "us")
	res.set("server.incr_p99_us", incr.quantileUS(0.99), "us")
	res.set("server.incr_samples", float64(len(incr.ns)), "count")
	res.set("txn.stale_counter_gets", float64(s.stale), "count")
	res.set("txn.counters", float64(s.counters), "count")
}

// recordRun reports the traced run's own costs: generation, Go runtime,
// CPU shares and the tracing overhead (untraced minus traced ops/s).
func recordRun(res *result, genNS float64, ops int64, mem [4]uint64, untraced, traced float64,
	cpu map[string]float64, samples int64) {
	res.set("workload.gen_ns_per_op", genNS, "ns")
	res.set("go.allocs_per_op", float64(mem[0])/float64(ops), "allocs")
	res.set("go.alloc_bytes_per_op", float64(mem[1])/float64(ops), "bytes")
	res.set("go.gc_cycles", float64(mem[2]), "count")
	res.set("go.gc_pause_ms", float64(mem[3])/1e6, "ms")
	res.set("trace.untraced_ops_per_s", untraced, "1/s")
	res.set("trace.traced_ops_per_s", traced, "1/s")
	res.set("trace.overhead_ops_per_s", untraced-traced, "1/s")
	res.set("cpu.samples", float64(samples), "count")
	for _, b := range cpuBuckets {
		res.set("cpu."+b, cpu[b], "share")
	}
}

func recordClient(res *result) {
	res.set("client.commands", float64(res.attempted), "count")
	res.set("client.failed_frac", ratio(res.failed, res.attempted), "ratio")
}

// traced is the wire workloads' per-layer run: one traced round (spans
// around every batch, CPU profile) and the ladder under this mix.
func (w wireWorkload) traced(p params, res *result, untraced float64, first *roundResult) error {
	res.traced = true
	t0 := time.Now()
	w.m.genOps(p.seed, 0, w.perConn)
	genNS := float64(time.Since(t0)) / float64(w.perConn)

	sp := newSpans()
	l, err := runLadder(w.m, p.seed, sp, res, func() (*roundResult, error) {
		return w.round(p.seed, true, res)
	})
	if err != nil {
		return err
	}
	l.record(w.m, res)
	below := l.below(w.m)
	below.counters.record(res)
	res.set("core.flash_reads_per_get", ratio(below.counters.userReadFlash, below.counters.gets), "reads/get")
	res.set("device.virt_kiops", below.virtKIOPS, "kIOPS")
	res.set("device.virt_read_p99_us", below.virtReadP99, "us")
	res.set("device.write_amp", below.writeAmp, "ratio")
	res.set("device.user_write_bytes", float64(below.userWriteBytes), "bytes")
	res.set("host.virt_service_p99_us", l.host.virtServiceP99, "us")
	recordRun(res, genNS, first.commands, first.mem, untraced, l.server.rate, l.server.cpu, l.server.cpuSamples)
	recordClient(res)
	return sp.write(traceDir, fmt.Sprintf("%s-seed%d.csv", w.name, p.seed))
}

// traced is the sim workloads' per-layer run: the same pass again on a
// fresh device with spans and a CPU profile, then the ladder under the
// workload's sizes and 80/20 mix at a keyspace the wire can preload.
func (w simWorkload) traced(p params, res *result, untraced simPass) error {
	res.traced = true
	n := untraced.ops
	g, err := workload.NewGenerator(w.spec, workload.Config{
		Population: w.population(p.seed), Theta: simTheta, WriteRatio: simWriteRatio, Seed: p.seed})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := int64(0); i < n; i++ {
		g.Next()
	}
	genNS := float64(time.Since(t0)) / float64(n)

	sd, _, err := w.timedSetup(p.seed)
	if err != nil {
		return err
	}
	sp := newSpans()
	prof, err := startCPUProfile()
	if err != nil {
		sd.dev.Close()
		return err
	}
	traced := w.pass(sd, sp, res)
	cpu, samples, err := prof.stop()
	sd.dev.Close()
	if err != nil {
		return err
	}
	if !sameVirtual(&traced, &untraced) {
		res.fail("virtual results differ between two passes at one seed")
	}

	lm := mix{spec: w.spec, keys: min(sd.gen.Population(), ladderKeys), get: 1 - simWriteRatio, set: simWriteRatio}
	ww := wireWorkload{name: "ladder", m: lm, perConn: ladderOps / wireConns}
	l, err := runLadder(lm, p.seed, sp, res, func() (*roundResult, error) {
		return ww.round(p.seed, true, res)
	})
	if err != nil {
		return err
	}
	l.record(lm, res)
	recordRun(res, genNS, untraced.ops,
		[4]uint64{untraced.mallocs, untraced.aBytes, untraced.gcs, uint64(untraced.gcPause)},
		median(untraced.segRates), median(traced.segRates), cpu, samples)
	recordClient(res)
	return sp.write(traceDir, fmt.Sprintf("%s-seed%d.csv", w.name, p.seed))
}
