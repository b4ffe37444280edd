// Cluster measurement runs: the §5 methodology lifted onto a sharded
// multi-device fleet. One key population spans the whole cluster; warm-up
// loads it in shuffled order through batched MultiPut waves, then the
// execution phase issues batch waves (puts first, then reads, preserving
// read-your-writes within a wave) until the issued bytes reach a multiple
// of the fleet's capacity. Per-operation latencies land in the same
// histograms single-device runs use; each wave's critical path (its slowest
// shard's busy span) is recorded separately as the batch latency.
package harness

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"anykey"
	"anykey/internal/nand"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// ClusterRunConfig describes one cluster measurement run: the cluster
// geometry plus the shared methodology knobs (BaseConfig — including the
// open-loop client knobs). Like RunConfig it holds only comparable values,
// so the parallel runner can memoize on it.
type ClusterRunConfig struct {
	Cluster anykey.ClusterOptions
	BaseConfig

	// BatchSize is the number of operations per Multi* wave (default
	// shards × queue depth, enough to keep every shard's queue full when
	// the routing is balanced). Open-loop runs submit per-operation and
	// ignore it.
	BatchSize int

	// Trace, when set, opens every shard with event tracing and leaves the
	// cluster on ClusterResult.Cluster so the caller can export the merged
	// fleet trace or blame report. The trace ring covers the whole run
	// (warm-up events age out of the ring first).
	Trace *anykey.TraceOptions
}

func (c *ClusterRunConfig) defaults() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	c.baseDefaults(c.Cluster.Device.PageSize, 0)
	if c.BatchSize == 0 {
		c.BatchSize = c.Cluster.Shards * c.Cluster.QueueDepth
	}
	return nil
}

// clusterCapacity returns a cluster's usable capacity: all shards, divided
// by the replication factor when the cluster replicates (every key occupies
// Factor devices).
func clusterCapacity(o anykey.ClusterOptions) int64 {
	b := int64(o.Shards) * int64(o.Device.CapacityMB) << 20
	if o.Replication.Factor > 1 {
		b /= int64(o.Replication.Factor)
	}
	return b
}

// Population returns the number of distinct keys the run loads across the
// fleet.
func (c *ClusterRunConfig) Population() (uint64, error) {
	if err := c.defaults(); err != nil {
		return 0, err
	}
	return c.basePopulation(clusterCapacity(c.Cluster)), nil
}

// openClusterRun opens a cluster run's cluster and its op generator over
// the run's key population (base's defaults already applied). The caller
// closes the cluster.
func openClusterRun(opts anykey.ClusterOptions, base *BaseConfig) (*anykey.Cluster, *workload.Generator, error) {
	gen, err := workload.NewGenerator(base.Workload, workload.Config{
		Population: base.basePopulation(clusterCapacity(opts)),
		Theta:      base.Theta,
		WriteRatio: base.WriteRatio,
		Seed:       base.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	cl, err := anykey.OpenCluster(opts)
	return cl, gen, err
}

// ClusterResult carries a cluster run's measurements: fleet-wide rollups
// plus the shard balance the router produced.
type ClusterResult struct {
	System   string // e.g. "AnyKey+ x4"
	Workload string
	Shards   int
	Router   string

	Population uint64
	Ops        int64 // executed operations (execution phase)

	ReadLat  stats.Histogram
	WriteLat stats.Histogram
	// BatchLat records, for each execution Multi* wave, how long the
	// slowest involved shard spent on its sub-batch (first arrival to last
	// completion within that shard's clock domain) — the wave's critical
	// path. The merged BatchResult span can collapse to zero whenever an
	// uninvolved-in-this-wave shard's clock runs ahead; this cannot.
	BatchLat stats.Histogram

	// QueueWaitLat and ServiceLat merge every shard engine's breakdown over
	// the execution phase.
	QueueWaitLat stats.Histogram
	ServiceLat   stats.Histogram

	// SimSeconds is the fleet's execution wall time in virtual seconds: the
	// slowest shard's elapsed clock over the execution phase (shard clocks
	// are independent, so per-shard elapsed is the meaningful quantity).
	// IOPS is executed operations per that second.
	IOPS       float64
	SimSeconds float64

	// Exec is the fleet flash counter delta over the execution phase;
	// Total the whole run including warm-up.
	Exec  nand.Counters
	Total nand.Counters

	// ShardOps counts execution-phase operations routed to each shard;
	// HottestShare is the largest shard's fraction of them — the router's
	// balance under the workload's skew.
	ShardOps     []int64
	HottestShare float64

	// Open carries the open-loop client's tally, present only when the
	// workload had an arrival process.
	Open *OpenStats

	// ReplStats carries the fleet replication counters when the cluster was
	// opened with a replication factor (zero Factor otherwise).
	ReplStats anykey.ReplicationStats

	Verified int64

	// Cluster is set only when the run was traced (ClusterRunConfig.Trace):
	// the closed cluster, kept for WriteChromeTrace and Blame, whose buffers
	// outlive Close.
	Cluster *anykey.Cluster
}

// waveSpan measures one wave's critical path: the max over involved shards
// of (last completion − first arrival), each within the shard's own clock
// domain.
func waveSpan(br *anykey.BatchResult, nShards int) anykey.Duration {
	first := make([]anykey.Time, nShards)
	last := make([]anykey.Time, nShards)
	seen := make([]bool, nShards)
	for i, comp := range br.Completions {
		s := br.Shards[i]
		if !seen[s] || comp.Arrival < first[s] {
			first[s] = comp.Arrival
		}
		if !seen[s] || comp.Done > last[s] {
			last[s] = comp.Done
		}
		seen[s] = true
	}
	var span anykey.Duration
	for s, ok := range seen {
		if !ok {
			continue
		}
		if d := last[s].Sub(first[s]); d > span {
			span = d
		}
	}
	return span
}

// RunCluster executes warm-up + measurement on a sharded cluster.
func RunCluster(cfg ClusterRunConfig) (*ClusterResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if cfg.Trace != nil && cfg.Cluster.Device.Trace == nil {
		cfg.Cluster.Device.Trace = cfg.Trace
	}
	cl, gen, err := openClusterRun(cfg.Cluster, &cfg.BaseConfig)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	res := &ClusterResult{
		System:     fmt.Sprintf("%s x%d", cfg.Cluster.Device.Design, cfg.Cluster.Shards),
		Workload:   cfg.Workload.Name,
		Shards:     cfg.Cluster.Shards,
		Router:     cfg.Cluster.Router.String(),
		Population: gen.Population(),
		ShardOps:   make([]int64, cfg.Cluster.Shards),
	}

	warmStats, startClocks, err := warmCluster(cl, gen, cfg.Workload, cfg.BatchSize)
	if err != nil {
		return nil, err
	}

	if cfg.Workload.Arrival.Open() {
		// Open-loop execution: per-operation, per-replica *At submission,
		// each arrival offset into its member's own clock domain.
		tgt := newClusterTarget(cl, startClocks)
		open, _, err := runOpenLoop(&cfg.BaseConfig, gen, tgt,
			openHooks{read: &res.ReadLat, write: &res.WriteLat}, &res.Verified)
		if err != nil {
			return nil, err
		}
		res.Open = open
		res.Ops = open.Attempts
		res.ShardOps = tgt.shardOps
		return finishCluster(cfg, cl, res, warmStats, startClocks)
	}

	targetBytes := int64(cfg.ExecFactor * float64(clusterCapacity(cfg.Cluster)))
	var issuedBytes int64

	// Execution: generate a wave of ops, split into the wave's puts and
	// gets, and submit puts first so a read of a key written in the same
	// wave observes the write (matching the generator's version counters).
	putKeys := make([][]byte, 0, cfg.BatchSize)
	putVals := make([][]byte, 0, cfg.BatchSize)
	getKeys := make([][]byte, 0, cfg.BatchSize)
	getIDs := make([]uint64, 0, cfg.BatchSize)
	for issuedBytes < targetBytes && (cfg.MaxOps == 0 || res.Ops < cfg.MaxOps) {
		putKeys, putVals = putKeys[:0], putVals[:0]
		getKeys, getIDs = getKeys[:0], getIDs[:0]
		for i := 0; i < cfg.BatchSize; i++ {
			if issuedBytes >= targetBytes || (cfg.MaxOps > 0 && res.Ops+int64(len(putKeys)+len(getKeys)) >= cfg.MaxOps) {
				break
			}
			op := gen.Next()
			switch op.Kind {
			case workload.OpPut:
				putKeys = append(putKeys, op.Key)
				putVals = append(putVals, op.Value)
			default:
				// The batch API carries no scans; a scan-free mix is the
				// cluster methodology (ScanRatio is not a knob here).
				getKeys = append(getKeys, op.Key)
				getIDs = append(getIDs, op.ID)
			}
			issuedBytes += op.Bytes()
		}
		if len(putKeys) > 0 {
			br, err := cl.MultiPut(putKeys, putVals)
			if err != nil {
				return nil, fmt.Errorf("harness: cluster put wave: %w", err)
			}
			if err := br.FirstErr(); err != nil {
				return nil, fmt.Errorf("harness: cluster put: %w", err)
			}
			for i, comp := range br.Completions {
				res.WriteLat.Record(comp.Latency())
				res.ShardOps[br.Shards[i]]++
			}
			res.BatchLat.Record(waveSpan(br, cfg.Cluster.Shards))
			res.Ops += int64(len(putKeys))
		}
		if len(getKeys) > 0 {
			br, err := cl.MultiGet(getKeys)
			if err != nil {
				return nil, fmt.Errorf("harness: cluster get wave: %w", err)
			}
			for i, comp := range br.Completions {
				if br.Errs[i] != nil {
					return nil, fmt.Errorf("harness: cluster get %x: %w", getKeys[i][:8], br.Errs[i])
				}
				res.ReadLat.Record(comp.Latency())
				res.ShardOps[br.Shards[i]]++
				if !cfg.NoVerify {
					if !bytes.Equal(comp.Value, gen.ExpectedValue(getIDs[i])) {
						return nil, fmt.Errorf("harness: cluster read of id %d returned wrong payload", getIDs[i])
					}
					res.Verified++
				}
			}
			res.BatchLat.Record(waveSpan(br, cfg.Cluster.Shards))
			res.Ops += int64(len(getKeys))
		}
	}

	return finishCluster(cfg, cl, res, warmStats, startClocks)
}

// finishCluster collects the execution phase's fleet-wide rollups — shared
// by the closed-loop (batch-wave) and open-loop paths.
func finishCluster(cfg ClusterRunConfig, cl *anykey.Cluster, res *ClusterResult, warmStats anykey.ClusterStats, startClocks []anykey.Time) (*ClusterResult, error) {
	if _, err := cl.Barrier(); err != nil {
		return nil, err
	}
	finalStats := cl.Stats()
	res.SimSeconds = execSeconds(finalStats, startClocks)
	if res.SimSeconds > 0 {
		res.IOPS = float64(res.Ops) / res.SimSeconds
	}
	if res.Open != nil && res.SimSeconds > 0 {
		res.Open.Goodput = float64(res.Open.GoodOps) / res.SimSeconds
	}
	res.QueueWaitLat = finalStats.QueueWait
	res.ServiceLat = finalStats.Service
	res.Total = finalStats.Flash
	res.Exec = finalStats.Flash.Sub(warmStats.Flash)
	var hottest int64
	for _, n := range res.ShardOps {
		if n > hottest {
			hottest = n
		}
	}
	if res.Ops > 0 {
		res.HottestShare = float64(hottest) / float64(res.Ops)
	}
	if fs, err := cl.FleetStats(); err == nil {
		res.ReplStats = fs.Repl
	}
	if cfg.Cluster.Device.Trace != nil {
		res.Cluster = cl
	}
	return res, nil
}

// warmCluster is the cluster warm-up: load every key once in shuffled order,
// in MultiPut waves of batch keys, then barrier and reset the engines'
// breakdowns. Each wave slot owns a reusable key/value buffer (shard
// devices copy on Put, and a wave completes before the next reuses the
// slots). It returns the post-warm-up stats and each member's clock at that
// instant: member clocks are independent and never aligned (cross-shard
// time is merged, not propagated), so warm-up leaves each member at its own
// instant, and execution time is accounted per member against its own
// exec-start clock.
func warmCluster(cl *anykey.Cluster, gen *workload.Generator, spec workload.Spec, batch int) (anykey.ClusterStats, []anykey.Time, error) {
	kbufs := make([][]byte, batch)
	vbufs := make([][]byte, batch)
	for done := uint64(0); done < gen.Population(); {
		n := uint64(batch)
		if done+n > gen.Population() {
			n = gen.Population() - done
		}
		for j := uint64(0); j < n; j++ {
			id := gen.LoadID(done + j)
			kbufs[j] = workload.AppendKey(kbufs[j][:0], spec, id)
			vbufs[j] = workload.AppendValue(vbufs[j][:0], spec, id, 0)
		}
		br, err := cl.MultiPut(kbufs[:n], vbufs[:n])
		if err != nil {
			return anykey.ClusterStats{}, nil, fmt.Errorf("harness: cluster warm-up: %w", err)
		}
		if err := br.FirstErr(); err != nil {
			return anykey.ClusterStats{}, nil, fmt.Errorf("harness: cluster warm-up put: %w", err)
		}
		done += n
	}
	if _, err := cl.Barrier(); err != nil {
		return anykey.ClusterStats{}, nil, err
	}
	warm := cl.Stats()
	cl.ResetBreakdowns()
	start := make([]anykey.Time, len(warm.PerShard))
	for i, ss := range warm.PerShard {
		start[i] = ss.Now
	}
	return warm, start, nil
}

// execSeconds is the execution phase's wall time in virtual seconds: the
// slowest member's elapsed clock since its exec-start clock. Only the
// members in start count — a member added mid-run has no warm-up anchor.
func execSeconds(final anykey.ClusterStats, start []anykey.Time) float64 {
	var slowest anykey.Duration
	for i, t := range start {
		if d := final.PerShard[i].Now.Sub(t); d > slowest {
			slowest = d
		}
	}
	return slowest.Seconds()
}

// clusterTarget drives a cluster's open loop at every replication factor:
// each owner of a key receives the attempt at the same epoch-relative
// instant, offset into its own clock domain (epochs holds each member's
// exec-start clock). A write completes at its W-th earliest
// quorum-counting replica, a read at its serving replica, each measured
// against that member's epoch. A missed quorum, or a read with no readable
// owner, is a failed attempt; shardOps tallies attempts by primary.
type clusterTarget struct {
	cl      *anykey.Cluster
	quorum  int
	epochs  []anykey.Time
	tracers []*anykey.Tracer

	shardOps                    []int64
	readFailures, writeFailures int64

	rel     anykey.Time        // the attempt being submitted
	arrival anykey.ArrivalFunc // epochs[member] + rel, bound once
	acks    []memberDone       // scratch for the write quorum pick
}

// memberDone is one replica's completion, epoch-relative.
type memberDone struct {
	rel    anykey.Time
	member int
}

func newClusterTarget(cl *anykey.Cluster, epochs []anykey.Time) *clusterTarget {
	// OpenCluster defaults WriteQuorum to Factor; a zero Factor is a
	// Factor-1 fleet with a quorum of one.
	t := &clusterTarget{cl: cl, quorum: max(cl.Replication().WriteQuorum, 1), epochs: epochs, tracers: cl.Tracers(),
		shardOps: make([]int64, len(epochs))}
	t.arrival = func(member int) anykey.Time { return t.epochs[member].Add(anykey.Duration(t.rel)) }
	return t
}

// adopt registers a member created at epoch-relative instant rel: its fresh
// device's clock starts "now", so its epoch is back-dated to keep epoch+rel
// consistent with the founding members' domains.
func (t *clusterTarget) adopt(member int, rel anykey.Time) {
	for len(t.epochs) <= member {
		t.epochs = append(t.epochs, 0)
		t.shardOps = append(t.shardOps, 0)
	}
	t.epochs[member] = max(t.cl.ShardNow(member).Add(-anykey.Duration(rel)), 0)
}

func (t *clusterTarget) submit(rel anykey.Time, op workload.Op) (openDone, error) {
	t.rel = rel
	var (
		fres anykey.FleetOpResult
		err  error
	)
	switch op.Kind {
	case workload.OpPut:
		fres, err = t.cl.FleetPutAt(t.arrival, op.Key, op.Value)
	case workload.OpScan:
		return openDone{}, errors.New("harness: cluster open loop has no scan path")
	default:
		fres, err = t.cl.FleetGetAt(t.arrival, op.Key)
	}
	if err != nil {
		return openDone{}, err
	}
	t.shardOps[fres.Primary()]++

	if op.Kind == workload.OpPut {
		if fres.Err != nil {
			// Quorum not met or every replica down. Any replica that
			// executed keeps the data; the loop taints the key.
			t.writeFailures++
			return openDone{failed: true}, nil
		}
		t.acks = t.acks[:0]
		for _, ra := range fres.Replicas {
			if ra.Quorum {
				t.acks = append(t.acks, memberDone{anykey.Time(ra.Comp.Done.Sub(t.epochs[ra.Member])), ra.Member})
			}
		}
		slices.SortFunc(t.acks, func(a, b memberDone) int {
			return cmp.Or(cmp.Compare(a.rel, b.rel), cmp.Compare(a.member, b.member))
		})
		ack := t.acks[t.quorum-1]
		return t.done(ack.member, ack.rel, nil), nil
	}
	if fres.Err != nil {
		if !errors.Is(fres.Err, anykey.ErrShardDown) && !errors.Is(fres.Err, anykey.ErrNotFound) {
			return openDone{}, fres.Err
		}
		// Every owner dead, or the key unreadable on the survivors (an
		// R=1 outage does both).
		t.readFailures++
		return openDone{failed: true}, nil
	}
	return t.done(fres.Served, anykey.Time(fres.AckDone.Sub(t.epochs[fres.Served])), fres.Value), nil
}

// done builds the attempt's outcome as completed by member.
func (t *clusterTarget) done(member int, rel anykey.Time, value []byte) openDone {
	var tr *anykey.Tracer
	if member < len(t.tracers) {
		tr = t.tracers[member]
	}
	return openDone{doneRel: rel, value: value, tracer: tr, epoch: t.epochs[member]}
}
