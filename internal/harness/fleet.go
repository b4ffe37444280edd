// Fleet measurement runs: the open-loop methodology against a replicated
// elastic cluster, with mid-run scenario events — kill a member device,
// rebuild it from its surviving replicas, or grow the ring under live load —
// and an acknowledged-write durability oracle. The run is the shared
// open-loop event loop (runOpenLoop) over the cluster target RunCluster
// uses; a fleetScenario plugs in through openHooks, firing its events ahead
// of each attempt and recording acknowledged writes as they complete. The
// oracle is the experiment's point: after the storm it checks every
// acknowledged write against what the fleet still serves. At R≥2/W=2
// killing one device must lose none of them; at R=1 the same kill provably
// loses data, which is the contrast reports/fleet.txt prints.
package harness

import (
	"bytes"
	"fmt"
	"slices"

	"anykey"
	"anykey/internal/stats"
	"anykey/internal/workload"
)

// FleetRunConfig describes one replicated-fleet run: the cluster geometry
// (Replication.Factor ≥ 1), the shared open-loop methodology knobs, and the
// scenario schedule expressed as fractions of the arrival horizon. Like the
// other run configs it holds only comparable values, so the parallel runner
// can memoize on it.
type FleetRunConfig struct {
	Cluster anykey.ClusterOptions
	BaseConfig

	// KillAtFrac, when > 0, kills member KillShard at that fraction of the
	// horizon with KillCause.
	KillAtFrac float64
	KillShard  int
	KillCause  anykey.FleetKillCause

	// RebuildAtFrac, when > 0, starts rebuilding the killed member at that
	// fraction of the horizon; the refill streams between client ops until
	// drained.
	RebuildAtFrac float64

	// AddShardAtFrac, when > 0, grows the ring by one member at that
	// fraction of the horizon, streaming the migration under live load.
	AddShardAtFrac float64

	// StepKeys bounds how many migration/rebuild keys stream between
	// consecutive client submissions (default 32): background refill
	// competes with traffic instead of monopolising the devices.
	StepKeys int

	// BatchSize is the warm-up MultiPut wave size (default shards × QD).
	BatchSize int
}

func (c *FleetRunConfig) defaults() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Cluster.Replication.Factor < 1 {
		return fmt.Errorf("harness: fleet run requires Replication.Factor >= 1")
	}
	c.baseDefaults(c.Cluster.Device.PageSize, 0)
	if !c.Workload.Arrival.Open() {
		return fmt.Errorf("harness: fleet run requires an open-loop arrival process")
	}
	if c.BatchSize == 0 {
		c.BatchSize = c.Cluster.Shards * c.Cluster.QueueDepth
	}
	if c.StepKeys == 0 {
		c.StepKeys = 32
	}
	return nil
}

// Population returns the number of distinct keys the run loads. The usable
// capacity divides by Factor: every key occupies Factor member devices.
func (c *FleetRunConfig) Population() (uint64, error) {
	if err := c.defaults(); err != nil {
		return 0, err
	}
	return c.basePopulation(clusterCapacity(c.Cluster)), nil
}

// FleetResult carries one fleet run's measurements.
type FleetResult struct {
	System   string
	Workload string
	Members  int
	R, W     int

	Population uint64
	Ops        int64 // open-loop attempts

	ReadLat  stats.Histogram
	WriteLat stats.Histogram

	// Read end-to-end latency split into scenario windows: first arrival
	// before the kill, between kill and rebuild completion (the outage), and
	// after — the kill's tail-latency blast radius. With no kill scheduled
	// everything lands in Pre.
	ReadPre    stats.Histogram
	ReadOutage stats.Histogram
	ReadPost   stats.Histogram

	Open *OpenStats
	Repl anykey.ReplicationStats

	// Durability oracle. AckedIDs counts distinct keys with at least one
	// acknowledged write; TaintedIDs those whose version ordering the retry
	// protocol (or an executed-but-unacknowledged attempt) broke. After the
	// run every acked key is read back: a clean key must serve exactly its
	// latest acknowledged payload, a tainted one must at least be readable.
	// LostAcked counts the keys that failed their check — acknowledged data
	// the fleet no longer serves.
	AckedIDs   int64
	TaintedIDs int64
	LostAcked  int64
	CleanOK    int64

	// Mid-run attempts the fleet rejected outright: reads with every owner
	// dead (or the key unreadable on the survivors), writes that missed
	// their quorum. Both re-enter the retry path rather than aborting the
	// run.
	ReadFailures  int64
	WriteFailures int64

	// Scenario accounting, in virtual time.
	KillRel     anykey.Duration // when the kill landed (epoch-relative)
	RebuildDur  anykey.Duration // merged-clock span of the rebuild
	RebuildKeys int64
	MigrateDur  anykey.Duration // merged-clock span of the AddShard migration

	SimSeconds float64
	IOPS       float64
	Verified   int64
}

// RunFleet executes warm-up + the open-loop scenario on a replicated fleet.
func RunFleet(cfg FleetRunConfig) (*FleetResult, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	cl, gen, err := openClusterRun(cfg.Cluster, &cfg.BaseConfig)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	repl := cl.Replication()
	res := &FleetResult{
		System:     fmt.Sprintf("%s x%d R=%d W=%d", cfg.Cluster.Device.Design, cfg.Cluster.Shards, repl.Factor, repl.WriteQuorum),
		Workload:   cfg.Workload.Name,
		Members:    cfg.Cluster.Shards,
		R:          repl.Factor,
		W:          repl.WriteQuorum,
		Population: gen.Population(),
	}

	_, start, err := warmCluster(cl, gen, cfg.Workload, cfg.BatchSize)
	if err != nil {
		return nil, err
	}
	tgt := newClusterTarget(cl, start)
	sc := newFleetScenario(&cfg, cl, tgt, res)
	open, tainted, err := runOpenLoop(&cfg.BaseConfig, gen, tgt, openHooks{
		read: &res.ReadLat, write: &res.WriteLat, before: sc.fire, completed: sc.completed,
	}, &res.Verified)
	if err != nil {
		return nil, err
	}
	res.Open = open
	res.Ops = open.Attempts
	res.ReadFailures, res.WriteFailures = tgt.readFailures, tgt.writeFailures
	if err := sc.drain(); err != nil {
		return nil, err
	}
	sc.verify(gen, tainted)

	if _, err := cl.Barrier(); err != nil {
		return nil, err
	}
	res.SimSeconds = execSeconds(cl.Stats(), start)
	if res.SimSeconds > 0 {
		res.IOPS = float64(res.Ops) / res.SimSeconds
		res.Open.Goodput = float64(res.Open.GoodOps) / res.SimSeconds
	}
	fs, err := cl.FleetStats()
	if err != nil {
		return nil, err
	}
	res.Repl = fs.Repl
	return res, nil
}

// fleetScenario is a fleet run's kill / rebuild / add-shard schedule on the
// arrival clock, the migration and rebuild streams it starts, and the
// durability oracle's acknowledged-write set.
type fleetScenario struct {
	cfg *FleetRunConfig
	cl  *anykey.Cluster
	tgt *clusterTarget
	res *FleetResult

	killAt, rebuildAt, addAt anykey.Time // 0 = not scheduled (addAt: or done)
	killed                   bool
	rebuildDone              anykey.Time // -1 until the rebuild drains
	rb                       *anykey.Rebuild
	rbStart                  anykey.Time
	mig                      *anykey.Migration
	migStart                 anykey.Time

	// acked holds every key with at least one write acknowledged within
	// its deadline: the durability promise the oracle holds the fleet to.
	acked map[uint64]struct{}
}

func newFleetScenario(cfg *FleetRunConfig, cl *anykey.Cluster, tgt *clusterTarget, res *FleetResult) *fleetScenario {
	sc := &fleetScenario{cfg: cfg, cl: cl, tgt: tgt, res: res, rebuildDone: -1, acked: map[uint64]struct{}{}}
	horizon := float64(cfg.Horizon)
	if cfg.KillAtFrac > 0 {
		sc.killAt = anykey.Time(horizon * cfg.KillAtFrac)
	}
	if cfg.RebuildAtFrac > 0 {
		sc.rebuildAt = anykey.Time(horizon * cfg.RebuildAtFrac)
	}
	if cfg.AddShardAtFrac > 0 {
		sc.addAt = anykey.Time(horizon * cfg.AddShardAtFrac)
	}
	return sc
}

// fire runs the scenario events scheduled at or before now, then steps any
// in-flight background stream by StepKeys, so refill and migration compete
// with client traffic.
func (sc *fleetScenario) fire(now anykey.Time) error {
	cl, cfg, res := sc.cl, sc.cfg, sc.res
	if sc.killAt > 0 && !sc.killed && now >= sc.killAt {
		if err := cl.KillShard(cfg.KillShard, cfg.KillCause); err != nil {
			return fmt.Errorf("harness: fleet kill: %w", err)
		}
		sc.killed = true
		res.KillRel = anykey.Duration(sc.killAt)
	}
	if sc.addAt > 0 && now >= sc.addAt {
		m, err := cl.AddShard()
		if err != nil {
			return fmt.Errorf("harness: fleet addshard: %w", err)
		}
		sc.mig = m
		sc.migStart = cl.Now()
		sc.tgt.adopt(cl.Shards()-1, now)
		sc.addAt = 0
	}
	if sc.rebuildAt > 0 && sc.killed && sc.rb == nil && sc.rebuildDone < 0 && now >= sc.rebuildAt {
		r, err := cl.RebuildShard(cfg.KillShard)
		if err != nil {
			return fmt.Errorf("harness: fleet rebuild: %w", err)
		}
		sc.rb = r
		sc.rbStart = cl.Now()
	}
	if sc.rb != nil {
		done, err := sc.rb.Step(cfg.StepKeys)
		if err != nil {
			return fmt.Errorf("harness: fleet rebuild step: %w", err)
		}
		if done {
			res.RebuildDur = cl.Now().Sub(sc.rbStart)
			_, _, res.RebuildKeys = sc.rb.Progress()
			sc.rebuildDone = now
			sc.rb = nil
		}
	}
	if sc.mig != nil {
		done, err := sc.mig.Step(cfg.StepKeys)
		if err != nil {
			return fmt.Errorf("harness: fleet migration step: %w", err)
		}
		if done {
			res.MigrateDur = cl.Now().Sub(sc.migStart)
			sc.mig = nil
		}
	}
	return nil
}

// completed records an acknowledged write for the oracle and windows a
// read by its first arrival: before the kill, during the outage, or after
// the rebuild drained.
func (sc *fleetScenario) completed(cur pendingOp, e2e anykey.Duration) {
	if cur.op.Kind == workload.OpPut {
		sc.acked[cur.op.ID] = struct{}{}
		return
	}
	switch {
	case sc.killAt == 0 || cur.firstRel < sc.killAt:
		sc.res.ReadPre.Record(e2e)
	case sc.rebuildDone >= 0 && cur.firstRel >= sc.rebuildDone:
		sc.res.ReadPost.Record(e2e)
	default:
		sc.res.ReadOutage.Record(e2e)
	}
}

// drain runs still-streaming background work to completion so the end
// state is well-defined before the oracle pass.
func (sc *fleetScenario) drain() error {
	if sc.rb != nil {
		if err := sc.rb.Run(); err != nil {
			return fmt.Errorf("harness: fleet rebuild drain: %w", err)
		}
		sc.res.RebuildDur = sc.cl.Now().Sub(sc.rbStart)
		_, _, sc.res.RebuildKeys = sc.rb.Progress()
	}
	if sc.mig != nil {
		if err := sc.mig.Run(); err != nil {
			return fmt.Errorf("harness: fleet migration drain: %w", err)
		}
		sc.res.MigrateDur = sc.cl.Now().Sub(sc.migStart)
	}
	return nil
}

// verify is the oracle pass: it reads back every acknowledged key and
// scores the durability promise. Clean keys must serve exactly their latest
// acknowledged payload, tainted keys must at least be readable. Failures
// are LostAcked — acknowledged data the fleet no longer serves.
func (sc *fleetScenario) verify(gen *workload.Generator, tainted map[uint64]struct{}) {
	res := sc.res
	ids := make([]uint64, 0, len(sc.acked))
	for id := range sc.acked {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	res.AckedIDs = int64(len(ids))
	res.TaintedIDs = int64(len(tainted))
	kbuf := make([]byte, 0, 64)
	for _, id := range ids {
		kbuf = workload.AppendKey(kbuf[:0], sc.cfg.Workload, id)
		v, _, err := sc.cl.Get(kbuf)
		if _, ok := tainted[id]; ok {
			if err != nil {
				res.LostAcked++
			}
			continue
		}
		if err != nil || !bytes.Equal(v, gen.ExpectedValue(id)) {
			res.LostAcked++
			continue
		}
		res.CleanOK++
	}
}
