package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"anykey"
	"anykey/internal/server"
	"anykey/internal/workload"
	"anykey/internal/zipfian"
)

// mix describes a keyspace and a command mix over it. The wire workloads
// send it over RESP; the layer ladder replays the same op stream below the
// server.
type mix struct {
	spec     workload.Spec
	keys     uint64  // preloaded keyspace (Zipfian θ=0.99, scrambled)
	get      float64 // command shares; MGET takes the remainder
	set      float64
	incr     float64
	counters uint64 // INCR targets, Zipfian θ=0.99 over their own ids
	repl     anykey.ReplicationOptions
}

const (
	wireConns    = 2
	wirePipeline = 16
	mgetKeys     = 3
	blameEvery   = 256 // anykeyserver's default tail-blame cadence

)

type opKind uint8

const (
	cmdGet opKind = iota
	cmdSet
	cmdMGet
	cmdIncr
	numCmds
)

// op is one generated command. ids[0] is the target; MGET uses all three.
type op struct {
	kind opKind
	ids  [mgetKeys]uint64
}

// genOps generates one client's command stream. Streams depend only on
// (seed, client), so both commits under test send identical commands.
func (m mix) genOps(seed int64, client, n int) []op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))
	zk, err := zipfian.New(m.keys, 0.99)
	if err != nil {
		panic(err)
	}
	var zc *zipfian.Generator
	if m.counters > 0 {
		if zc, err = zipfian.New(m.counters, 0.99); err != nil {
			panic(err)
		}
	}
	ops := make([]op, n)
	for i := range ops {
		r := rng.Float64()
		o := &ops[i]
		switch {
		case r < m.incr:
			o.kind = cmdIncr
			o.ids[0] = m.keys + zc.NextScrambled(rng)
		case r < m.incr+m.get:
			o.kind = cmdGet
			o.ids[0] = zk.NextScrambled(rng)
		case r < m.incr+m.get+m.set:
			o.kind = cmdSet
			o.ids[0] = zk.NextScrambled(rng)
		default:
			o.kind = cmdMGet
			for j := range o.ids {
				o.ids[j] = zk.NextScrambled(rng)
			}
		}
	}
	return ops
}

// Values are self-describing: key id, writer and sequence number, then
// filler derived from those three, so any reply can be checked without a
// shadow copy of the store. Writer 0 is the preload (sequence 0).
const valueHeader = 14

func (m mix) appendKey(dst []byte, id uint64) []byte {
	return workload.AppendKey(dst, m.spec, id)
}

func (m mix) appendValue(dst []byte, id uint64, writer uint16, seq uint32) []byte {
	n := m.spec.ValueSize
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	v := dst[:n]
	binary.BigEndian.PutUint64(v[0:8], id)
	binary.BigEndian.PutUint16(v[8:10], writer)
	binary.BigEndian.PutUint32(v[10:14], seq)
	x := id*0x9E3779B97F4A7C15 ^ uint64(writer)<<32 ^ uint64(seq) | 1
	for i := valueHeader; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// writeLog records, per writer, which key each sequence number wrote, so a
// reader can tell a value some client really sent from a corrupted one.
type writeLog struct{ keys []atomic.Uint64 } // key id + 1; 0 = unsent

// checker verifies replies against the values clients sent.
type checker struct {
	m    mix
	logs []*writeLog // index = writer; 0 is the preload
	buf  []byte
}

// check verifies one value read for key id. ownAcked is the reader's own
// latest acknowledged write sequence on the key (0 = none): a reply older
// than that is a lost write.
func (c *checker) check(id uint64, v []byte, found bool, self uint16, ownAcked uint32) string {
	if !found {
		return fmt.Sprintf("key %d: missing", id)
	}
	if len(v) != c.m.spec.ValueSize || len(v) < valueHeader {
		return fmt.Sprintf("key %d: value of %d bytes", id, len(v))
	}
	kid := binary.BigEndian.Uint64(v[0:8])
	w := binary.BigEndian.Uint16(v[8:10])
	seq := binary.BigEndian.Uint32(v[10:14])
	if kid != id {
		return fmt.Sprintf("key %d: holds the value of key %d", id, kid)
	}
	switch {
	case w == 0:
		if seq != 0 {
			return fmt.Sprintf("key %d: preload value with sequence %d", id, seq)
		}
	case int(w) >= len(c.logs):
		return fmt.Sprintf("key %d: unknown writer %d", id, w)
	case int(seq) >= len(c.logs[w].keys) || c.logs[w].keys[seq].Load() != id+1:
		return fmt.Sprintf("key %d: writer %d never sent sequence %d for it", id, w, seq)
	}
	if ownAcked > 0 && (w == 0 || (w == self && seq < ownAcked)) {
		return fmt.Sprintf("key %d: lost write: read %d/%d after own write %d was acknowledged", id, w, seq, ownAcked)
	}
	c.buf = c.m.appendValue(c.buf, id, w, seq)
	if !bytes.Equal(c.buf, v) {
		return fmt.Sprintf("key %d: value bytes corrupted", id)
	}
	return ""
}

// wireServer is one in-process anykeyserver with anykeyserver's default
// configuration apart from the listen addresses.
type wireServer struct {
	srv      *server.Server
	serveErr chan error
}

func startServer(m mix) (*wireServer, error) {
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0",
		Cluster: anykey.ClusterOptions{
			Shards:      4,
			QueueDepth:  64,
			Router:      anykey.RouteConsistent,
			Replication: m.repl,
			Device:      anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: 64},
		},
		BlameEvery: blameEvery,
	})
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: srv, serveErr: make(chan error, 1)}
	go func() { ws.serveErr <- srv.Serve() }()
	return ws, nil
}

// stop drains the server and waits for its accept loop to return.
func (ws *wireServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ws.srv.Shutdown(ctx)
	if serr := <-ws.serveErr; err == nil {
		err = serr
	}
	return err
}

func (ws *wireServer) dial() (*server.Client, error) {
	return server.Dial(ws.srv.Addr().String(), 5*time.Second)
}

// preload writes every key once (writer 0, sequence 0) with pipelined MSETs
// over wireConns connections.
func (ws *wireServer) preload(m mix) error {
	const perMSet, depth = 64, 8
	errs := make(chan error, wireConns)
	var wg sync.WaitGroup
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- ws.preloadPart(m, uint64(c), wireConns, perMSet, depth)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (ws *wireServer) preloadPart(m mix, first, stride uint64, perMSet, depth int) error {
	cl, err := ws.dial()
	if err != nil {
		return err
	}
	defer cl.Close()
	args := [][]byte{[]byte("MSET")}
	pending := 0
	drain := func() error {
		if err := cl.Flush(); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			rp, err := cl.Receive()
			if err != nil {
				return err
			}
			if rp.Kind == '-' {
				return fmt.Errorf("preload MSET: %s", rp.Str)
			}
		}
		return nil
	}
	for id := first; id < m.keys; {
		args = args[:1]
		for j := 0; j < perMSet && id < m.keys; j++ {
			args = append(args, m.appendKey(nil, id), m.appendValue(nil, id, 0, 0))
			id += stride
		}
		if err := cl.SendBytes(args); err != nil {
			return err
		}
		if pending++; pending == depth {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// clientStats is one connection's tally.
type clientStats struct {
	lat        [numCmds]latencies
	done       int64
	failed     int64
	incrAcked  map[uint64]int64 // counter id → acknowledged INCRs
	incrUnsure map[uint64]int64 // counter id → INCRs answered with an error
	problems   []string
	last       time.Time
}

// drive sends ops on one connection, wirePipeline commands per flush, and
// checks every reply. A command's latency runs from its batch's flush to
// the arrival of its reply.
func drive(cl *server.Client, m mix, shared *checker, self uint16, log *writeLog, ops []op, sp *spans) *clientStats {
	ck := &checker{m: shared.m, logs: shared.logs} // own scratch buffer
	st := &clientStats{incrAcked: map[uint64]int64{}, incrUnsure: map[uint64]int64{}}
	ownAcked := map[uint64]uint32{}
	var seq uint32
	var kbuf [mgetKeys + 1][]byte
	var vbuf []byte
	args := make([][]byte, 0, mgetKeys+1)
	setSeq := make([]uint32, wirePipeline)
	one := []byte("1")
	acked := map[uint64]uint32{}
	for start := 0; start < len(ops); start += wirePipeline {
		batch := ops[start:min(start+wirePipeline, len(ops))]
		for i, o := range batch {
			args = args[:0]
			switch o.kind {
			case cmdGet:
				kbuf[0] = m.appendKey(kbuf[0], o.ids[0])
				args = append(args, []byte("GET"), kbuf[0])
			case cmdSet:
				seq++
				log.keys[seq].Store(o.ids[0] + 1)
				setSeq[i] = seq
				kbuf[0] = m.appendKey(kbuf[0], o.ids[0])
				vbuf = m.appendValue(vbuf, o.ids[0], self, seq)
				args = append(args, []byte("SET"), kbuf[0], vbuf)
			case cmdMGet:
				args = append(args, []byte("MGET"))
				for j := range o.ids {
					kbuf[j] = m.appendKey(kbuf[j], o.ids[j])
					args = append(args, kbuf[j])
				}
			case cmdIncr:
				kbuf[0] = m.appendKey(kbuf[0], o.ids[0])
				args = append(args, []byte("INCRBY"), kbuf[0], one)
			}
			if err := cl.SendBytes(args); err != nil {
				st.problem("send: %v", err)
				return st
			}
		}
		s := sp.begin("server.resp.batch")
		t0 := time.Now()
		if err := cl.Flush(); err != nil {
			st.problem("flush: %v", err)
			return st
		}
		clear(acked)
		for i, o := range batch {
			rp, err := cl.Receive()
			lat := time.Since(t0)
			if err != nil {
				st.problem("receive: %v", err)
				sp.end(s)
				return st
			}
			st.lat[o.kind].add(lat)
			if rp.Kind == '-' {
				st.failed++
				if o.kind == cmdIncr {
					st.incrUnsure[o.ids[0]]++
				}
				continue
			}
			st.done++
			switch o.kind {
			case cmdGet:
				if msg := ck.check(o.ids[0], rp.Bulk, !rp.Null, self, ownAcked[o.ids[0]]); msg != "" {
					st.problem("GET %s", msg)
				}
			case cmdMGet:
				if len(rp.Array) != mgetKeys {
					st.problem("MGET returned %d elements", len(rp.Array))
					continue
				}
				for j, e := range rp.Array {
					if msg := ck.check(o.ids[j], e.Bulk, !e.Null, self, ownAcked[o.ids[j]]); msg != "" {
						st.problem("MGET %s", msg)
					}
				}
			case cmdSet:
				if rp.Kind != '+' {
					st.problem("SET answered %q", rp.Text())
				}
				acked[o.ids[0]] = setSeq[i]
			case cmdIncr:
				if rp.Kind != ':' || rp.Int < 1 {
					st.problem("INCRBY answered %q", rp.Text())
				}
				st.incrAcked[o.ids[0]]++
			}
		}
		sp.end(s)
		// Writes acknowledged in this batch constrain reads of later
		// batches only.
		for k, q := range acked {
			ownAcked[k] = q
		}
	}
	st.last = time.Now()
	return st
}

// problem records a wrong reply or a broken connection; the run is then
// incorrect. Error replies (-BUSY, -TIMEOUT, -ERR) count as failed instead.
func (st *clientStats) problem(format string, args ...any) {
	if len(st.problems) < 10 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
}

// wireWorkload is one RESP workload: 2 connections × pipeline 16, closed
// loop, against a fresh server per round.
type wireWorkload struct {
	name string
	m    mix
	// perConn is each connection's command count in one round; fixed, so
	// every commit executes the same commands.
	perConn int
}

// --seconds / roundSeconds rounds run, at least minRounds. roundSeconds is
// one round's wall time on the reference machine (2 vCPU) for both wire
// workloads.
const (
	roundSeconds = 1.2
	minRounds    = 3
)

func runRespKV(p params, res *result) error {
	return wireWorkload{name: "resp-kv", perConn: 12_000, m: mix{
		spec: mustSpec("YCSB"), keys: 20_000, get: 0.5, set: 0.3,
	}}.run(p, res)
}

func runRespFleetTxn(p params, res *result) error {
	return wireWorkload{name: "resp-fleet-txn", perConn: 10_000, m: mix{
		spec: mustSpec("UDB"), keys: 20_000, incr: 0.3, get: 0.35, set: 0.21,
		counters: 1_000, repl: anykey.ReplicationOptions{Factor: 2, WriteQuorum: 2},
	}}.run(p, res)
}

// roundResult is one server lifecycle's outcome.
type roundResult struct {
	setup    float64
	rate     float64 // wall commands/s
	cpuPerOp float64 // process CPU us per command
	commands int64
	failed   int64
	lat      [numCmds]latencies
	peakHeap float64
	before   scrape
	after    scrape
	stale    int64
	counters int64
	wall     time.Duration
	mem      [4]uint64 // mallocs, bytes, gcs, pause ns

	// Traced rounds only.
	cpu        map[string]float64
	cpuSamples int64
	spans      []*spans
}

// round starts a server, preloads it, drives w.perConn commands on each
// connection, audits the counters and stops the server. A traced round
// records a span around every pipelined batch and profiles the CPU while
// the connections run.
func (w wireWorkload) round(seed int64, traced bool, res *result) (*roundResult, error) {
	rr := &roundResult{}
	settle()
	heap := startHeapSampler()
	defer func() { rr.peakHeap = heap.stop() }()

	// Generate first: op generation is the benchmark's cost, not set-up's.
	streams := make([][]op, wireConns)
	for c := range streams {
		streams[c] = w.m.genOps(seed, c, w.perConn)
	}

	t0 := time.Now()
	ws, err := startServer(w.m)
	if err != nil {
		return nil, err
	}
	if err := ws.preload(w.m); err != nil {
		ws.stop()
		return nil, err
	}
	rr.setup = time.Since(t0).Seconds()

	ck := &checker{m: w.m, logs: make([]*writeLog, wireConns+1)}
	ck.logs[0] = &writeLog{}
	for c := 1; c <= wireConns; c++ {
		ck.logs[c] = &writeLog{keys: make([]atomic.Uint64, w.perConn+1)}
	}
	clients := make([]*server.Client, wireConns)
	for c := range clients {
		if clients[c], err = ws.dial(); err != nil {
			ws.stop()
			return nil, err
		}
		defer clients[c].Close()
	}
	// Spans are single-goroutine: one recorder per connection.
	sps := make([]*spans, wireConns)
	var prof *cpuProfile
	if traced {
		for c := range sps {
			sps[c] = newSpans()
		}
		if prof, err = startCPUProfile(); err != nil {
			ws.stop()
			return nil, err
		}
	}
	rr.before = scrapeServer(ws.srv)
	mem := startMem()
	stats := make([]*clientStats, wireConns)
	start, cpu0 := time.Now(), processCPU()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = drive(clients[c], w.m, ck, uint16(c+1), ck.logs[c+1], streams[c], sps[c])
		}(c)
	}
	wg.Wait()
	cpu := processCPU() - cpu0
	end := start
	for _, st := range stats {
		if st.last.After(end) {
			end = st.last
		}
	}
	rr.wall = end.Sub(start)
	m0, m1, m2, m3 := mem.stop()
	rr.mem = [4]uint64{m0, m1, m2, uint64(m3)}
	rr.after = scrapeServer(ws.srv)
	if prof != nil {
		if rr.cpu, rr.cpuSamples, err = prof.stop(); err != nil {
			ws.stop()
			return nil, err
		}
		rr.spans = sps
	}

	acked := map[uint64]int64{}
	unsure := map[uint64]int64{}
	for _, st := range stats {
		rr.commands += st.done + st.failed
		rr.failed += st.failed
		for k := range rr.lat {
			rr.lat[k].ns = append(rr.lat[k].ns, st.lat[k].ns...)
		}
		// One round is one segment: its connections' samples pool.
		for _, p := range st.problems {
			res.fail("%s", p)
		}
		for k, n := range st.incrAcked {
			acked[k] += n
		}
		for k, n := range st.incrUnsure {
			unsure[k] += n
		}
	}
	rr.rate = float64(rr.commands) / rr.wall.Seconds()
	rr.cpuPerOp = float64(cpu) / 1e3 / float64(rr.commands)
	if w.m.counters > 0 {
		if rr.stale, err = w.auditCounters(clients[0], acked, unsure, res); err != nil {
			ws.stop()
			return nil, err
		}
		rr.counters = int64(w.m.counters)
	}
	if err := ws.stop(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	return rr, nil
}

// auditCounters checks every counter: INCRBY k 0 must equal the acknowledged
// INCR count (plus at most the INCRs that answered an error). It returns how
// many plain GETs disagreed with that audited value — the known split-phase
// stale read of raw GETs, reported as a count, not gated.
func (w wireWorkload) auditCounters(cl *server.Client, acked, unsure map[uint64]int64, res *result) (int64, error) {
	var stale int64
	var kbuf []byte
	for c := uint64(0); c < w.m.counters; c++ {
		id := w.m.keys + c
		kbuf = w.m.appendKey(kbuf, id)
		rp, err := cl.DoBytes([][]byte{[]byte("INCRBY"), kbuf, []byte("0")})
		if err != nil {
			return 0, err
		}
		if rp.Kind != ':' {
			res.fail("counter %d: INCRBY 0 answered %q", id, rp.Text())
			continue
		}
		if rp.Int < acked[id] || rp.Int > acked[id]+unsure[id] {
			res.fail("counter %d: audited %d, acknowledged %d INCRs (+%d unsure)", id, rp.Int, acked[id], unsure[id])
		}
		g, err := cl.DoBytes([][]byte{[]byte("GET"), kbuf})
		if err != nil {
			return 0, err
		}
		var plain int64
		if !g.Null {
			if plain, err = strconv.ParseInt(string(g.Bulk), 10, 64); err != nil {
				res.fail("counter %d: GET returned %q", id, g.Bulk)
				continue
			}
		}
		if plain != rp.Int {
			stale++
		}
	}
	return stale, nil
}

// roundCount is how many server lifecycles fill the wall budget on the
// reference machine. It depends only on --seconds.
func roundCount(p params) int {
	return max(minRounds, int(math.Round(float64(p.seconds)/roundSeconds)))
}

func (w wireWorkload) run(p params, res *result) error {
	var rounds []*roundResult
	// Round 0 warms the process up (heap growth, first-touch page faults)
	// and is checked but not timed.
	for r := 0; r <= roundCount(p); r++ {
		rr, err := w.round(p.seed, false, res)
		if err != nil {
			return err
		}
		if r > 0 {
			rounds = append(rounds, rr)
		}
	}
	var setups, rates, cpus, heaps []float64
	var all [numCmds]latencySummary
	for _, rr := range rounds {
		setups = append(setups, rr.setup)
		rates = append(rates, rr.rate)
		cpus = append(cpus, rr.cpuPerOp)
		heaps = append(heaps, rr.peakHeap)
		res.attempted += rr.commands
		res.failed += rr.failed
		for k := range all {
			all[k].add(&rr.lat[k])
		}
	}
	res.set("cpu_us_per_op", median(cpus), "us")
	res.set("client.ops_per_s", median(rates), "1/s")
	res.recordLatencies("client.get", &all[cmdGet])
	res.recordLatencies("client.set", &all[cmdSet])
	res.set("setup_s", median(setups), "s")
	res.set("peak_heap_mb", median(heaps), "MiB")
	res.note("%s: %d rounds × %d conns × %d commands, pipeline %d; rates %v /s; CPU %v us/command; set-ups %v s",
		w.name, len(rounds), wireConns, w.perConn, wirePipeline, rates, cpus, setups)
	if s := all[cmdMGet]; s.samples > 0 {
		res.note("mget: p50 %.1f us, p99 %.1f us over %d samples", median(s.p50), median(s.p99), s.samples)
	}
	if s := all[cmdIncr]; s.samples > 0 {
		res.note("incr: p50 %.1f us, p99 %.1f us over %d samples", median(s.p50), median(s.p99), s.samples)
	}
	if !p.trace {
		return nil
	}
	return w.traced(p, res, median(rates), rounds[0])
}

// scrape is a parsed Prometheus text scrape: series name (labels dropped)
// → value summed over label sets.
type scrape map[string]float64

func scrapeServer(srv *server.Server) scrape {
	var buf bytes.Buffer
	if err := srv.Registry().WriteText(&buf); err != nil {
		return scrape{}
	}
	out := scrape{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name[i:], "le=") {
				continue // histogram buckets; _sum and _count suffice
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

func (s scrape) delta(prev scrape, name string) float64 { return s[name] - prev[name] }
