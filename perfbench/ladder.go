package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"anykey"
	"anykey/internal/nand"
)

// The layer ladder replays one op stream down the stack so that each
// layer's added cost is a number: the device engine alone, the sharded
// cluster (R=0), the replicated fleet (R=2), the same cluster with tracing
// and the server's tail-blame cadence, the transaction coordinator's Incr,
// and finally the RESP server. Every call is wrapped in a span; ns_per_op is
// the mean span, allocs_per_op the rung's mallocs per op.

// ladderStream is the single-client stream every rung below the server
// replays.
func (m mix) ladderStream(seed int64, n int) []op {
	return m.genOps(seed^0x5bd1e995, 97, n)
}

// rungResult is one rung's cost.
type rungResult struct {
	ops                 int64
	ns                  float64 // mean span per op
	allocs              float64
	perKind             map[string]float64 // span name → mean ns
	counters            counterDelta
	imbalance           float64
	replicaWritesPerPut float64
	blameCalls          int64
	blameNS             float64
	eventsPerOp         float64
	dropped             int64

	virtKIOPS, virtReadP99, writeAmp float64
	virtServiceP99                   float64 // host rung only, us
	userWriteBytes                   int64
}

// userWriteBytes is the key and value bytes the stream's writes carry.
func userWriteBytes(m mix, ops []op) int64 {
	var n int64
	for _, o := range ops {
		switch o.kind {
		case cmdSet:
			n += int64(m.spec.KeySize + m.spec.ValueSize)
		case cmdIncr:
			n += int64(m.spec.KeySize) + 4
		}
	}
	return n
}

// store is what a rung replays against: Device+Engine or a Cluster.
type store interface {
	get(key []byte) ([]byte, bool, error)
	put(key, value []byte) error
	mget(keys [][]byte) ([][]byte, []bool, error)
}

// engineStore also keeps each op's virtual device service time.
type engineStore struct {
	eng     *anykey.Engine
	virtSvc []int64
}

func (s *engineStore) get(key []byte) ([]byte, bool, error) {
	c, err := s.eng.Get(key)
	s.virtSvc = append(s.virtSvc, int64(c.Service()))
	if errors.Is(err, anykey.ErrNotFound) {
		return nil, false, nil
	}
	return c.Value, err == nil, err
}

func (s *engineStore) put(key, value []byte) error {
	c, err := s.eng.Put(key, value)
	s.virtSvc = append(s.virtSvc, int64(c.Service()))
	return err
}

func (s *engineStore) mget(keys [][]byte) ([][]byte, []bool, error) {
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	for i, k := range keys {
		v, ok, err := s.get(k)
		if err != nil {
			return nil, nil, err
		}
		vals[i], found[i] = append([]byte(nil), v...), ok
	}
	return vals, found, nil
}

// clusterStore also keeps each read's virtual latency for the paper's
// read-tail metric.
type clusterStore struct {
	cl       *anykey.Cluster
	virtGets []int64
}

func (s *clusterStore) get(key []byte) ([]byte, bool, error) {
	v, lat, err := s.cl.Get(key)
	s.virtGets = append(s.virtGets, int64(lat))
	if errors.Is(err, anykey.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (s *clusterStore) put(key, value []byte) error {
	_, err := s.cl.Put(key, value)
	return err
}

func (s *clusterStore) mget(keys [][]byte) ([][]byte, []bool, error) {
	br, err := s.cl.MultiGet(keys)
	if err != nil {
		return nil, nil, err
	}
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	for i := range keys {
		s.virtGets = append(s.virtGets, int64(br.Completions[i].Latency()))
		switch {
		case br.Errs[i] == nil:
			vals[i], found[i] = br.Completions[i].Value, true
		case !errors.Is(br.Errs[i], anykey.ErrNotFound):
			return nil, nil, br.Errs[i]
		}
	}
	return vals, found, nil
}

// replay runs ops against st under spans named prefix.<kind>, checking each
// read's header. INCR is replayed as the read-modify-write it implies below
// the coordinator: a Get and a Put of the counter. onOp, when non-nil, runs
// after each op with the op's target key (the traced rung calls Blame from
// it).
func replay(m mix, st store, ops []op, prefix string, sp *spans, res *result, onOp func(key []byte)) (mallocs uint64, dur time.Duration) {
	settle()
	mem := startMem()
	t0 := time.Now()
	var kbuf []byte
	var vbuf []byte
	keys := make([][]byte, mgetKeys)
	var seq uint32
	checkHeader := func(id uint64, v []byte, ok bool) {
		if !ok || len(v) < valueHeader || binary.BigEndian.Uint64(v[0:8]) != id {
			res.fail("%s: read of key %d returned a wrong value", prefix, id)
		}
	}
	for _, o := range ops {
		switch o.kind {
		case cmdGet:
			kbuf = m.appendKey(kbuf, o.ids[0])
			s := sp.begin(prefix + ".get")
			v, ok, err := st.get(kbuf)
			sp.end(s)
			if err != nil {
				res.fail("%s get: %v", prefix, err)
				continue
			}
			checkHeader(o.ids[0], v, ok)
		case cmdSet:
			seq++
			kbuf = m.appendKey(kbuf, o.ids[0])
			vbuf = m.appendValue(vbuf, o.ids[0], 1, seq)
			s := sp.begin(prefix + ".put")
			err := st.put(kbuf, vbuf)
			sp.end(s)
			if err != nil {
				res.fail("%s put: %v", prefix, err)
			}
		case cmdMGet:
			for j := range keys {
				keys[j] = m.appendKey(keys[j], o.ids[j])
			}
			s := sp.begin(prefix + ".mget")
			vals, found, err := st.mget(keys)
			sp.end(s)
			if err != nil {
				res.fail("%s mget: %v", prefix, err)
				continue
			}
			for j := range keys {
				checkHeader(o.ids[j], vals[j], found[j])
			}
		case cmdIncr:
			kbuf = m.appendKey(kbuf, o.ids[0])
			s := sp.begin(prefix + ".rmw")
			v, ok, err := st.get(kbuf)
			var n int64
			if err == nil && ok {
				n, err = strconv.ParseInt(string(v), 10, 64)
			}
			if err == nil {
				err = st.put(kbuf, strconv.AppendInt(vbuf[:0], n+1, 10))
			}
			sp.end(s)
			if err != nil {
				res.fail("%s read-modify-write: %v", prefix, err)
			}
		}
		if onOp != nil {
			onOp(kbuf)
		}
	}
	dur = time.Since(t0)
	mallocs, _, _, _ = mem.stop()
	return mallocs, dur
}

// rungSummary fills ns/allocs from the spans recorded under prefix.
func rungSummary(agg map[string]spanAgg, prefix string, ops int64, mallocs uint64) rungResult {
	r := rungResult{ops: ops, allocs: float64(mallocs) / float64(ops), perKind: map[string]float64{}}
	var total time.Duration
	var n int64
	for _, k := range []string{"get", "put", "mget", "rmw"} {
		a := agg[prefix+"."+k]
		if a.count > 0 {
			r.perKind[k] = float64(a.total) / float64(a.count)
			total += a.total
			n += a.count
		}
	}
	if n > 0 {
		r.ns = float64(total) / float64(n)
	}
	return r
}

// hostRung replays the stream through one device and its QD-64 engine. The
// device holds as much flash as the cluster's four shards together.
func hostRung(m mix, ops []op, sp *spans, res *result) (rungResult, error) {
	dev, err := anykey.Open(anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 256})
	if err != nil {
		return rungResult{}, err
	}
	defer dev.Close()
	eng, err := dev.NewEngine(simQueueDepth)
	if err != nil {
		return rungResult{}, err
	}
	var kbuf, vbuf []byte
	for id := uint64(0); id < m.keys; id++ {
		kbuf = m.appendKey(kbuf, id)
		vbuf = m.appendValue(vbuf, id, 0, 0)
		if _, err := eng.Put(kbuf, vbuf); err != nil {
			return rungResult{}, fmt.Errorf("host rung preload: %w", err)
		}
	}
	es := &engineStore{eng: eng}
	mallocs, _ := replay(m, es, ops, "host", sp, res, nil)
	r := rungSummary(sp.aggregate(), "host", int64(len(ops)), mallocs)
	r.virtServiceP99 = quantile(es.virtSvc, 0.99) / 1e3
	return r, nil
}

func openLadderCluster(repl anykey.ReplicationOptions, traced bool) (*anykey.Cluster, error) {
	opts := anykey.ClusterOptions{
		Shards: 4, QueueDepth: 64, Router: anykey.RouteConsistent, Replication: repl,
		Device: anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 64},
	}
	if traced {
		opts.Device.Trace = &anykey.TraceOptions{}
	}
	return anykey.OpenCluster(opts)
}

func preloadCluster(m mix, cl *anykey.Cluster) error {
	const batch = 256
	keys := make([][]byte, 0, batch)
	vals := make([][]byte, 0, batch)
	for id := uint64(0); id < m.keys; {
		keys, vals = keys[:0], vals[:0]
		for ; len(keys) < batch && id < m.keys; id++ {
			keys = append(keys, m.appendKey(nil, id))
			vals = append(vals, m.appendValue(nil, id, 0, 0))
		}
		br, err := cl.MultiPut(keys, vals)
		if err != nil {
			return err
		}
		for _, e := range br.Errs {
			if e != nil {
				return fmt.Errorf("cluster preload: %w", e)
			}
		}
	}
	return nil
}

// clusterRung replays the stream through a 4-shard cluster at replication
// repl. With traced set, every shard runs a tracer and each shard's Blame is
// called every blameEvery ops routed to it, as the server's bridge does.
func clusterRung(m mix, ops []op, repl anykey.ReplicationOptions, traced bool, prefix string, sp *spans, res *result) (rungResult, error) {
	cl, err := openLadderCluster(repl, traced)
	if err != nil {
		return rungResult{}, err
	}
	defer cl.Close()
	if err := preloadCluster(m, cl); err != nil {
		return rungResult{}, err
	}
	before := cl.Stats()
	var fbefore anykey.FleetStats
	if repl.Factor > 0 {
		if fbefore, err = cl.FleetStats(); err != nil {
			return rungResult{}, err
		}
	}
	trs := cl.Tracers()
	var evBefore, dropBefore int64
	for _, tr := range trs {
		evBefore += int64(tr.EventCount()) + tr.DroppedEvents()
		dropBefore += tr.DroppedEvents()
	}
	var onOp func([]byte)
	var blameCalls int64
	var blameTime time.Duration
	if traced {
		since := make([]int, cl.Shards())
		onOp = func(key []byte) {
			s := cl.ShardFor(key)
			if since[s]++; since[s] < blameEvery {
				return
			}
			since[s] = 0
			b := sp.begin("trace.blame")
			t := time.Now()
			trs[s].Blame(anykey.BlameOptions{Percentile: 99, MaxOps: 1})
			blameTime += time.Since(t)
			sp.end(b)
			blameCalls++
		}
	}
	cs := &clusterStore{cl: cl}
	start := cl.Now()
	mallocs, _ := replay(m, cs, ops, prefix, sp, res, onOp)
	virtSeconds := cl.Now().Sub(start).Seconds()
	r := rungSummary(sp.aggregate(), prefix, int64(len(ops)), mallocs)
	after := cl.Stats()

	var maxOps, sumOps int64
	for i, ps := range after.PerShard {
		d := ps.Ops - before.PerShard[i].Ops
		sumOps += d
		maxOps = max(maxOps, d)
	}
	if sumOps > 0 {
		r.imbalance = float64(maxOps) / (float64(sumOps) / float64(len(after.PerShard)))
	}
	var gets, puts int64
	for _, o := range ops {
		switch o.kind {
		case cmdGet:
			gets++
		case cmdMGet:
			gets += mgetKeys
		case cmdSet:
			puts++
		case cmdIncr:
			gets++
			puts++
		}
	}
	if repl.Factor > 0 {
		fafter, err := cl.FleetStats()
		if err != nil {
			return rungResult{}, err
		}
		fallbacks := fafter.Repl.ReadFallbacks - fbefore.Repl.ReadFallbacks
		r.replicaWritesPerPut = ratio(sumOps-gets-fallbacks, puts)
	} else {
		r.replicaWritesPerPut = ratio(sumOps-gets, puts)
	}
	flash := after.Flash.Sub(before.Flash)
	r.virtKIOPS = float64(len(ops)) / virtSeconds / 1e3
	r.virtReadP99 = quantile(cs.virtGets, 0.99) / 1e3
	r.userWriteBytes = userWriteBytes(m, ops)
	r.writeAmp = float64(flash.TotalWrites()) * float64(anykey.DefaultOptions().PageSize) / float64(r.userWriteBytes)
	r.counters = counterDelta{
		treeComp: after.TreeCompactions - before.TreeCompactions,
		logComp:  after.LogCompactions - before.LogCompactions,
		chained:  after.ChainedCompactions - before.ChainedCompactions,
		gcRuns:   after.GCRuns - before.GCRuns,
		gcRelocs: after.GCRelocations - before.GCRelocations,
		reads:    flash.TotalReads(), writes: flash.TotalWrites(), erases: flash.Erases,
		userReadFlash: flash.Reads[nand.CauseUser],
		ops:           int64(len(ops)), gets: gets, puts: puts,
	}
	if traced {
		var ev, drop int64
		for _, tr := range trs {
			ev += int64(tr.EventCount()) + tr.DroppedEvents()
			drop += tr.DroppedEvents()
		}
		r.eventsPerOp = float64(ev-evBefore) / float64(len(ops))
		r.dropped = drop - dropBefore
		r.blameCalls = blameCalls
		if blameCalls > 0 {
			r.blameNS = float64(blameTime) / float64(blameCalls)
		}
	}
	return r, nil
}

// txnRung increments a 1,000-counter Zipfian bank through Cluster.Incr from
// wireConns goroutines at once, as the server's connections do, and reports
// the coordinator's counter deltas.
type txnResult struct {
	ops                  int64
	nsPerOp, allocsPerOp float64
	p50, p99             float64 // us
	stats                anykey.TxnStats
}

func txnRung(m mix, seed int64, perClient int, res *result) (txnResult, error) {
	tm := m
	tm.incr, tm.get, tm.set = 1, 0, 0
	if tm.counters == 0 {
		tm.counters = 1_000
	}
	cl, err := openLadderCluster(m.repl, false)
	if err != nil {
		return txnResult{}, err
	}
	defer cl.Close()
	streams := make([][]op, wireConns)
	for c := range streams {
		streams[c] = tm.genOps(seed^0x2545f491, c, perClient)
	}
	before := cl.TxnStats()
	lats := make([]latencies, wireConns)
	errs := make([]error, wireConns)
	settle()
	mem := startMem()
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var kbuf []byte
			for _, o := range streams[c] {
				kbuf = tm.appendKey(kbuf, o.ids[0])
				t := time.Now()
				_, _, err := cl.Incr(kbuf, 1)
				lats[c].add(time.Since(t))
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	mallocs, _, _, _ := mem.stop()
	for _, err := range errs {
		if err != nil {
			res.fail("txn rung Incr: %v", err)
		}
	}
	after := cl.TxnStats()
	var all latencies
	var sum int64
	for _, l := range lats {
		all.ns = append(all.ns, l.ns...)
		for _, v := range l.ns {
			sum += v
		}
	}
	n := int64(len(all.ns))
	return txnResult{
		ops: n, nsPerOp: float64(sum) / float64(n), allocsPerOp: float64(mallocs) / float64(n),
		p50: all.quantileUS(0.5), p99: all.quantileUS(0.99),
		stats: anykey.TxnStats{
			Commits:     after.Commits - before.Commits,
			Conflicts:   after.Conflicts - before.Conflicts,
			Retries:     after.Retries - before.Retries,
			SplitMerges: after.SplitMerges - before.SplitMerges,
			SplitOps:    after.SplitOps - before.SplitOps,
		},
	}, nil
}
