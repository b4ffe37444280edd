package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"anykey"
	"anykey/internal/harness"
	"anykey/internal/nand"
	"anykey/internal/workload"
)

// simWorkload drives one AnyKey+ device through Device.NewEngine(64)
// directly, as harness.Run does: a shuffled warm-up fill of the harness
// population, then a closed-loop Zipfian (θ=0.99) stream with 20% writes.
// No server, fleet, transaction layer or tracer is involved, and no Sync
// runs in the timed phase.
type simWorkload struct {
	name string
	spec workload.Spec
	// passSeconds is one pass's wall time on the reference machine (2 vCPU);
	// --seconds / passSeconds passes run, each on a freshly set-up device.
	passSeconds float64
}

const (
	simQueueDepth = 64
	simCapacityMB = 128
	simWriteRatio = 0.2
	simTheta      = 0.99
	setupRepeats  = 3  // set-ups per run; setup_s is their median
	simSegments   = 10 // slices of each pass; ops_per_s is their median
	// execFactor is harness.Run's default run length: a pass issues request
	// bytes totalling twice the device capacity (§5.5).
	execFactor = 2
)

func runSimLowVK(p params, res *result) error {
	return simWorkload{name: "sim-lowvk", spec: mustSpec("Crypto1"), passSeconds: 14}.run(p, res)
}

func runSimHighVK(p params, res *result) error {
	return simWorkload{name: "sim-highvk", spec: mustSpec("KVSSD"), passSeconds: 3.3}.run(p, res)
}

func mustSpec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("perfbench: unknown workload spec " + name)
	}
	return s
}

func (w simWorkload) deviceOptions(seed int64) anykey.Options {
	return anykey.Options{Design: anykey.DesignAnyKeyPlus, CapacityMB: simCapacityMB, Seed: seed}
}

func (w simWorkload) population(seed int64) uint64 {
	rc := harness.RunConfig{Device: w.deviceOptions(seed), BaseConfig: harness.BaseConfig{
		Workload: w.spec, Theta: simTheta, WriteRatio: simWriteRatio, Seed: seed}}
	return rc.Population()
}

// simDevice is a device after set-up: warm-up fill done, engine at the
// phase barrier.
type simDevice struct {
	dev   *anykey.Device
	eng   *anykey.Engine
	gen   *workload.Generator
	start anykey.Time
}

// setup opens a device and loads every key once in shuffled order.
func (w simWorkload) setup(seed int64) (*simDevice, error) {
	dev, err := anykey.Open(w.deviceOptions(seed))
	if err != nil {
		return nil, err
	}
	eng, err := dev.NewEngine(simQueueDepth)
	if err != nil {
		dev.Close()
		return nil, err
	}
	gen, err := workload.NewGenerator(w.spec, workload.Config{
		Population: w.population(seed), Theta: simTheta, WriteRatio: simWriteRatio, Seed: seed})
	if err != nil {
		dev.Close()
		return nil, err
	}
	var kbuf, vbuf []byte
	for i := uint64(0); i < gen.Population(); i++ {
		id := gen.LoadID(i)
		kbuf = workload.AppendKey(kbuf, w.spec, id)
		vbuf = workload.AppendValue(vbuf, w.spec, id, 0)
		if _, err := eng.Put(kbuf, vbuf); err != nil {
			dev.Close()
			return nil, fmt.Errorf("warm-up put %d: %w", i, err)
		}
	}
	return &simDevice{dev: dev, eng: eng, gen: gen, start: eng.Barrier()}, nil
}

// timedSetup sets a device up after collecting the previous one's garbage
// and returns the set-up's wall time.
func (w simWorkload) timedSetup(seed int64) (*simDevice, float64, error) {
	settle()
	t0 := time.Now()
	sd, err := w.setup(seed)
	return sd, time.Since(t0).Seconds(), err
}

// simPass is one timed phase's outcome.
type simPass struct {
	ops, gets, puts  int64
	wall             time.Duration
	segRates         []float64 // wall ops/s per slice
	segCPU           []float64 // process CPU us per op per slice
	getLat, setLat   latencies
	virtGet, virtSvc []int64 // virtual get latency and device service time, ns
	virtGetP99       float64 // ns; kept after the slices are freed
	virtSvcP99       float64
	virtSeconds      float64
	userWriteBytes   int64
	before, after    anykey.StatsSnapshot
	mallocs, aBytes  uint64
	gcs              uint64
	gcPause          time.Duration
}

// pass executes the harness's execution phase on sd: generated ops until
// the issued request bytes reach execFactor × capacity, checking every read
// against the generator's expected version. sp, when non-nil, records a
// span around each engine call.
func (w simWorkload) pass(sd *simDevice, sp *spans, res *result) simPass {
	var ps simPass
	ps.before = sd.dev.StatsSnapshot()
	settle()
	mem := startMem()
	target := int64(execFactor * float64(simCapacityMB<<20))
	seg := target / simSegments
	// Size the sample slices up front: growing them by doubling would put
	// the benchmark's own copies into the peak-heap metric.
	est := int(float64(target)/(float64(w.spec.KeySize)+simWriteRatio*float64(w.spec.ValueSize))*1.05) + 1024
	ps.getLat.ns = make([]int64, 0, est)
	ps.setLat.ns = make([]int64, 0, int(float64(est)*simWriteRatio*1.2))
	ps.virtGet = make([]int64, 0, est)
	ps.virtSvc = make([]int64, 0, est)
	var issued, segOps int64
	t0 := time.Now()
	segStart, segCPU := t0, processCPU()
	root := sp.begin("sim.pass")
	for issued < target {
		op := sd.gen.Next() // timed apart as workload.gen_ns_per_op
		res.attempted++
		switch op.Kind {
		case workload.OpPut:
			s := sp.begin("host.engine.put")
			t := time.Now()
			c, err := sd.eng.Put(op.Key, op.Value)
			ps.setLat.add(time.Since(t))
			sp.end(s)
			if err != nil {
				res.failed++
				res.fail("put id %d: %v", op.ID, err)
				continue
			}
			ps.puts++
			ps.userWriteBytes += int64(len(op.Key) + len(op.Value))
			ps.virtSvc = append(ps.virtSvc, int64(c.Service()))
		case workload.OpGet:
			s := sp.begin("host.engine.get")
			t := time.Now()
			c, err := sd.eng.Get(op.Key)
			ps.getLat.add(time.Since(t))
			sp.end(s)
			if err != nil {
				res.failed++
				res.fail("get id %d: %v", op.ID, err)
				continue
			}
			if !bytes.Equal(c.Value, sd.gen.ExpectedValue(op.ID)) {
				res.fail("get id %d returned a wrong value", op.ID)
			}
			ps.gets++
			ps.virtGet = append(ps.virtGet, int64(c.Latency()))
			ps.virtSvc = append(ps.virtSvc, int64(c.Service()))
		}
		ps.ops++
		segOps++
		if issued += op.Bytes(); issued >= seg*int64(len(ps.segRates)+1) {
			now, cpu := time.Now(), processCPU()
			ps.segRates = append(ps.segRates, float64(segOps)/now.Sub(segStart).Seconds())
			ps.segCPU = append(ps.segCPU, float64(cpu-segCPU)/1e3/float64(segOps))
			segStart, segCPU, segOps = now, cpu, 0
			ps.getLat.cut()
			ps.setLat.cut()
		}
	}
	sp.end(root)
	ps.wall = time.Since(t0)
	ps.mallocs, ps.aBytes, ps.gcs, ps.gcPause = mem.stop()
	ps.virtSeconds = sd.eng.Now().Sub(sd.start).Seconds()
	ps.virtGetP99, ps.virtSvcP99 = quantile(ps.virtGet, 0.99), quantile(ps.virtSvc, 0.99)
	ps.virtGet, ps.virtSvc = nil, nil
	ps.after = sd.dev.StatsSnapshot()
	return ps
}

// passes is how many harness-length passes fill the wall budget on the
// reference machine. It depends only on --seconds, so both commits under
// test execute the same passes.
func (w simWorkload) passes(p params) int {
	return max(1, int(math.Round(float64(p.seconds)/w.passSeconds)))
}

func (w simWorkload) run(p params, res *result) error {
	var setups, rates, cpus, heaps []float64
	// Set up at least setupRepeats times; surplus devices close unused.
	for i := w.passes(p); i < setupRepeats; i++ {
		sd, secs, err := w.timedSetup(p.seed)
		if err != nil {
			return err
		}
		sd.dev.Close()
		setups = append(setups, secs)
	}
	var first simPass
	var getLat, setLat latencySummary
	for i := 0; i < w.passes(p); i++ {
		// The heap is sampled per pass, set-up included, and the median
		// over passes reported.
		settle()
		heap := startHeapSampler()
		sd, secs, err := w.timedSetup(p.seed)
		if err != nil {
			heap.stop()
			return err
		}
		setups = append(setups, secs)
		pass := w.pass(sd, nil, res)
		sd.dev.Close()
		peak := heap.stop()
		// With several passes the first warms the process up (heap growth,
		// first-touch page faults) and is checked but not timed.
		if i > 0 || w.passes(p) == 1 {
			rates = append(rates, pass.segRates...)
			cpus = append(cpus, pass.segCPU...)
			heaps = append(heaps, peak)
			getLat.add(&pass.getLat)
			setLat.add(&pass.setLat)
		}
		// Free the wall samples before the next pass.
		pass.getLat, pass.setLat = latencies{}, latencies{}
		if i == 0 {
			first = pass
		} else if !sameVirtual(&first, &pass) {
			res.fail("virtual results differ between passes at one seed")
		}
		res.note("%s pass %d: population %d, %d ops (%d gets, %d puts) in %.2fs wall, peak heap %.1f MiB; CPU per op by slice %.3f us",
			w.spec.Name, i, sd.gen.Population(), pass.ops, pass.gets, pass.puts, pass.wall.Seconds(), peak, pass.segCPU)
	}
	res.set("cpu_us_per_op", median(cpus), "us")
	res.set("client.ops_per_s", median(rates), "1/s")
	res.recordLatencies("client.get", &getLat)
	res.recordLatencies("client.set", &setLat)
	res.set("setup_s", median(setups), "s")
	res.set("peak_heap_mb", median(heaps), "MiB")
	res.note("set-ups %v s", setups)
	w.recordDevice(res, &first)
	if !p.trace {
		return nil
	}
	return w.traced(p, res, first)
}

// sameVirtual reports whether two passes at one seed produced the same
// simulated outcome, as they must.
func sameVirtual(a, b *simPass) bool {
	return a.ops == b.ops && a.virtSeconds == b.virtSeconds && a.after.Flash == b.after.Flash &&
		a.virtGetP99 == b.virtGetP99
}

// recordDevice reports the paper's virtual metrics and the device counter
// deltas of a pass. The virtual numbers are deterministic for a seed.
func (w simWorkload) recordDevice(res *result, ps *simPass) {
	pageSize := anykey.DefaultOptions().PageSize
	flash := ps.after.Flash.Sub(ps.before.Flash)
	res.set("device.virt_kiops", float64(ps.ops)/ps.virtSeconds/1e3, "kIOPS")
	res.set("device.virt_read_p99_us", ps.virtGetP99/1e3, "us")
	res.set("device.write_amp", float64(flash.TotalWrites())*float64(pageSize)/float64(ps.userWriteBytes), "ratio")
	res.set("device.user_write_bytes", float64(ps.userWriteBytes), "bytes")
	res.set("host.virt_service_p99_us", ps.virtSvcP99/1e3, "us")
	res.note("virtual: %.3f kIOPS, read p99 %.3f us, write amp %.4f (deterministic for the seed)",
		float64(ps.ops)/ps.virtSeconds/1e3, ps.virtGetP99/1e3,
		float64(flash.TotalWrites())*float64(pageSize)/float64(ps.userWriteBytes))
	c := counterDelta{
		treeComp: ps.after.TreeCompactions - ps.before.TreeCompactions,
		logComp:  ps.after.LogCompactions - ps.before.LogCompactions,
		chained:  ps.after.ChainedCompactions - ps.before.ChainedCompactions,
		gcRuns:   ps.after.GCRuns - ps.before.GCRuns,
		gcRelocs: ps.after.GCRelocations - ps.before.GCRelocations,
		reads:    flash.TotalReads(),
		writes:   flash.TotalWrites(),
		erases:   flash.Erases,
		ops:      ps.ops, gets: ps.gets, puts: ps.puts,
	}
	c.record(res)
	res.set("core.flash_reads_per_get", ratio(flash.Reads[nand.CauseUser], ps.gets), "reads/get")
}

// counterDelta is the device-layer work over a timed phase.
type counterDelta struct {
	treeComp, logComp, chained, gcRuns, gcRelocs int64
	reads, writes, erases                        int64
	ops, gets, puts                              int64
	userReadFlash                                int64 // flash reads with cause "user"
}

func (c counterDelta) record(res *result) {
	res.set("core.tree_compactions", float64(c.treeComp), "count")
	res.set("core.log_compactions", float64(c.logComp), "count")
	res.set("core.chained_compactions", float64(c.chained), "count")
	res.set("core.gc_runs", float64(c.gcRuns), "count")
	res.set("core.gc_relocations", float64(c.gcRelocs), "count")
	res.set("core.gets", float64(c.gets), "count")
	res.set("nand.page_reads_per_op", ratio(c.reads, c.ops), "pages/op")
	res.set("nand.page_writes_per_put", ratio(c.writes, c.puts), "pages/put")
	res.set("nand.erases", float64(c.erases), "count")
	res.set("nand.puts", float64(c.puts), "count")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
