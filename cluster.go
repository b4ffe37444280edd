package anykey

import (
	"fmt"
	"io"
	"sync/atomic"

	"anykey/internal/cluster"
	"anykey/internal/cluster/fleet"
	"anykey/internal/device"
	"anykey/internal/trace"
	"anykey/internal/txn"
)

// Cluster-facing re-exports.
type (
	// RouterPolicy selects how a cluster maps keys to shards.
	RouterPolicy = cluster.Policy
	// BatchResult reports one Multi* batch: per-operation completions,
	// shards and errors in input order, plus the merged batch span.
	BatchResult = cluster.BatchResult
	// ClusterStats is the merged statistics view of a cluster with its
	// per-shard breakdown.
	ClusterStats = cluster.Stats
	// ShardStats is one shard's row of a cluster stats rollup.
	ShardStats = cluster.ShardStats
)

// Routing policies for ClusterOptions.Router.
const (
	// RouteConsistent places shards on a consistent-hash ring (default).
	RouteConsistent = cluster.RouteConsistent
	// RouteModulo routes a key to hash(key) mod shards.
	RouteModulo = cluster.RouteModulo
)

// ClusterOptions configures a sharded multi-device cluster. The zero value
// is a valid 4-shard AnyKey+ cluster at queue depth 64 with consistent-hash
// routing.
type ClusterOptions struct {
	// Shards is the number of member devices (default 4).
	Shards int

	// QueueDepth is each shard's submission queue depth (default 64, the
	// paper's evaluation depth).
	QueueDepth int

	// Router selects the key→shard mapping (default RouteConsistent).
	Router RouterPolicy

	// VirtualNodes is the ring points per shard under RouteConsistent
	// (default 64).
	VirtualNodes int

	// Device configures every member device. Each shard's internal
	// randomness is decorrelated by offsetting Device.Seed with the shard
	// index; all other fields apply uniformly. Fault injection
	// (Device.Faults) is not supported on clusters. Device.Trace enables
	// one tracer per shard, merged by WriteChromeTrace and Blame.
	Device Options

	// Txn tunes the transaction layer behind BeginTxn/Txn/Incr/Append/
	// CompareAndSwap and the Atomic* batch calls: the OCC retry budget and
	// virtual backoff, and the hot-key split-phase thresholds. The zero
	// value enables transactions with the documented defaults.
	Txn TxnOptions

	// Replication, when Factor ≥ 1, turns the cluster into an elastic
	// replicated fleet: every key lives on Factor distinct shards from the
	// ring's successor walk, writes acknowledge at WriteQuorum alive
	// replicas, reads are read-one with fallback (or read-repair), and the
	// fleet-only methods — AddShard, RemoveShard, KillShard, RebuildShard —
	// become available. Requires RouteConsistent (the walk is a ring
	// property). The zero value keeps one copy per key — a plain sharded
	// cluster, which may also route by RouteModulo — and rejects the
	// fleet-only methods with ErrUnsupported.
	Replication ReplicationOptions
}

// DefaultClusterOptions returns the fully normalized default cluster
// configuration (what the zero ClusterOptions resolves to).
func DefaultClusterOptions() ClusterOptions {
	var o ClusterOptions
	if err := o.Validate(); err != nil {
		panic(err) // unreachable: the zero ClusterOptions is documented valid
	}
	return o
}

// Validate checks every field and normalizes zero values to their defaults
// in place, sharing Options.Validate for the per-shard device
// configuration. Out-of-range values are reported wrapped in
// ErrInvalidOptions; unsupported combinations in ErrUnsupported.
func (o *ClusterOptions) Validate() error {
	if o.Shards < 0 {
		return fmt.Errorf("%w: Shards %d is negative", ErrInvalidOptions, o.Shards)
	}
	if o.QueueDepth < 0 {
		return fmt.Errorf("%w: QueueDepth %d is negative", ErrInvalidOptions, o.QueueDepth)
	}
	if o.VirtualNodes < 0 {
		return fmt.Errorf("%w: VirtualNodes %d is negative", ErrInvalidOptions, o.VirtualNodes)
	}
	switch o.Router {
	case RouteConsistent, RouteModulo:
	default:
		return fmt.Errorf("%w: unknown router policy %v", ErrInvalidOptions, o.Router)
	}
	if o.Device.Faults != nil {
		// A power cut tears down one device mid-operation via a panic the
		// single-device facade catches; the cluster has no such recovery
		// path, so fault injection stays a single-device tool for now.
		return fmt.Errorf("%w: fault injection on a cluster (open the shard as a single Device instead)", ErrUnsupported)
	}
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.VirtualNodes == 0 {
		o.VirtualNodes = 64
	}
	if o.Replication.Factor < 0 {
		return fmt.Errorf("%w: Replication.Factor %d is negative", ErrInvalidOptions, o.Replication.Factor)
	}
	if o.Replication.WriteQuorum < 0 {
		return fmt.Errorf("%w: Replication.WriteQuorum %d is negative", ErrInvalidOptions, o.Replication.WriteQuorum)
	}
	if o.Replication.Factor > 0 {
		if o.Router != RouteConsistent {
			return fmt.Errorf("%w: replication requires RouteConsistent (replica sets are ring successor walks)", ErrUnsupported)
		}
		if o.Replication.Factor > o.Shards {
			return fmt.Errorf("%w: Replication.Factor %d exceeds Shards %d", ErrInvalidOptions, o.Replication.Factor, o.Shards)
		}
		if o.Replication.WriteQuorum > o.Replication.Factor {
			return fmt.Errorf("%w: Replication.WriteQuorum %d exceeds Factor %d", ErrInvalidOptions, o.Replication.WriteQuorum, o.Replication.Factor)
		}
		if o.Replication.WriteQuorum == 0 {
			o.Replication.WriteQuorum = o.Replication.Factor
		}
		switch o.Replication.ReadMode {
		case ReadOne, ReadRepair:
		default:
			return fmt.Errorf("%w: unknown read mode %v", ErrInvalidOptions, o.Replication.ReadMode)
		}
	} else if o.Replication.WriteQuorum > 0 {
		return fmt.Errorf("%w: Replication.WriteQuorum %d without Factor", ErrInvalidOptions, o.Replication.WriteQuorum)
	}
	if err := o.Txn.Validate(); err != nil {
		return fmt.Errorf("%w: Txn: %v", ErrInvalidOptions, err)
	}
	return o.Device.Validate()
}

// Cluster is an open sharded fleet of simulated KV-SSDs behind one
// keyspace: a hash router over N independent devices, each driven by its
// own queue-depth-N submission engine in its own virtual clock domain, with
// Replication.Factor copies of every key (one at the zero Factor). The
// batch calls (MultiPut/MultiGet/MultiDelete) are the primary interface —
// they route every key to its shard's engine and complete at the maximum of
// the involved shards' virtual completion times.
//
// Cross-shard time is merged, never propagated, so every result is
// deterministic.
//
// Concurrency: every call is safe for concurrent use. Each shard carries
// its own lock, so callers driving disjoint shards (one goroutine per
// shard, as the network server does) never perturb each other's clocks.
type Cluster struct {
	f      *fleet.Fleet     // the executor: one copy per key at Factor 0
	co     *txn.Coordinator // transaction layer over the fleet
	opts   ClusterOptions
	closed atomic.Bool
}

// OpenCluster builds a cluster of opts.Shards identical devices (modulo the
// per-shard seed offset).
func OpenCluster(opts ClusterOptions) (*Cluster, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	newDev := memberFactory(opts)
	devs := make([]device.KVSSD, 0, opts.Shards)
	var tracers []*trace.Tracer
	for s := 0; s < opts.Shards; s++ {
		dev, tr, err := newDev(s)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		devs = append(devs, dev)
		if tr != nil {
			tracers = append(tracers, tr)
		}
	}
	return newCluster(devs, tracers, opts)
}

// newCluster builds the fleet and transaction layer over already-opened
// shard devices. A zero Replication.Factor runs the fleet at Factor 1.
func newCluster(devs []device.KVSSD, tracers []*trace.Tracer, opts ClusterOptions) (*Cluster, error) {
	f, err := fleet.New(devs, fleet.Config{
		QueueDepth:   opts.QueueDepth,
		VirtualNodes: opts.VirtualNodes,
		Policy:       opts.Router,
		Repl:         opts.Replication,
		NewDevice:    memberFactory(opts),
		Tracers:      tracers,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{f: f, co: txn.New(fleetTxnBackend{f: f}, opts.Txn), opts: opts}, nil
}

// memberFactory builds member devices — the initial shards and the fleet's
// replacement/expansion hardware alike — from one configuration, seeded off
// the member ID, so a rebuilt member gets deterministic fresh hardware.
func memberFactory(opts ClusterOptions) fleet.DeviceFactory {
	return func(memberID int) (device.KVSSD, *trace.Tracer, error) {
		shardOpts := opts.Device
		shardOpts.Seed = opts.Device.Seed + int64(memberID)
		impl, err := openImpl(&shardOpts)
		if err != nil {
			return nil, nil, err
		}
		var tr *trace.Tracer
		if opts.Device.Trace != nil {
			tr = trace.New(trace.Config{
				Events: opts.Device.Trace.EventBuffer,
				Ops:    opts.Device.Trace.OpBuffer,
			})
			attachTracerTo(impl, tr)
		}
		return impl, tr, nil
	}
}

// gate rejects operations on a closed cluster.
func (c *Cluster) gate() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Shards returns the number of member devices (every member ever created,
// including dead and retired ones — member IDs are stable).
func (c *Cluster) Shards() int { return len(c.f.Members()) }

// Router returns the routing policy in force.
func (c *Cluster) Router() RouterPolicy { return c.opts.Router }

// ShardFor returns the shard a key routes to (on a replicated cluster: the
// key's primary — the first member of its replica walk).
func (c *Cluster) ShardFor(key []byte) int { return c.f.PrimaryFor(key) }

// Now returns the merged cluster clock: the maximum over shard clocks.
func (c *Cluster) Now() Time { return c.f.Now() }

// ShardNow returns shard s's virtual clock. A wall-clock bridge reads it
// once per shard to anchor the mapping from real arrival times onto that
// shard's clock domain.
func (c *Cluster) ShardNow(s int) Time { return c.f.MemberNow(s) }

// MultiPut stores keys[i] → values[i] for every i, routed by key and
// completed at the merged batch time. Batch order is preserved, so
// duplicate keys resolve to the later write. Per-operation errors are in
// BatchResult.Errs; the returned error reports only call misuse.
func (c *Cluster) MultiPut(keys, values [][]byte) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	if len(keys) != len(values) {
		return nil, fmt.Errorf("%w: %d keys, %d values", ErrInvalidOptions, len(keys), len(values))
	}
	return c.f.Batch(len(keys), func(i int) fleet.OpResult {
		return c.f.Put(keys[i], values[i])
	}), nil
}

// MultiGet reads every key. Absent keys report ErrNotFound in
// BatchResult.Errs; returned values are copies owned by the caller.
func (c *Cluster) MultiGet(keys [][]byte) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	return c.f.Batch(len(keys), func(i int) fleet.OpResult {
		return c.f.Get(keys[i])
	}), nil
}

// MultiDelete removes every key (deleting an absent key succeeds).
func (c *Cluster) MultiDelete(keys [][]byte) (*BatchResult, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	return c.f.Batch(len(keys), func(i int) fleet.OpResult {
		return c.f.Delete(keys[i])
	}), nil
}

// Put stores one pair on its shard and returns the simulated latency.
func (c *Cluster) Put(key, value []byte) (Duration, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	res := c.f.Put(key, value)
	return res.Completion().Latency(), res.Err
}

// Get reads one key from its shard. The value is a copy owned by the
// caller.
func (c *Cluster) Get(key []byte) ([]byte, Duration, error) {
	if err := c.gate(); err != nil {
		return nil, 0, err
	}
	res := c.f.Get(key)
	comp := res.Completion()
	return comp.Value, comp.Latency(), res.Err
}

// Delete removes one key on its shard and returns the simulated latency.
func (c *Cluster) Delete(key []byte) (Duration, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	res := c.f.Delete(key)
	return res.Completion().Latency(), res.Err
}

// PutAt is the open-loop Put: the request arrives at the routed shard at
// the given instant of that shard's clock domain, queueing behind whatever
// is already in flight there. The full completion and the shard index are
// returned — open-loop clients need arrival/issue/done to implement
// timeouts and retries.
func (c *Cluster) PutAt(arrival Time, key, value []byte) (Completion, int, error) {
	if err := c.gate(); err != nil {
		return Completion{}, 0, err
	}
	return opOutcome(c.f.PutAt(constArrival(arrival), key, value))
}

// constArrival maps one client arrival instant onto every replica's clock
// domain: the same numeric instant in each — domains are independent, so
// "the request reaches all replicas at t" is exactly the fan-out a
// replicating front end performs.
func constArrival(at Time) fleet.ArrivalFunc {
	return func(int) Time { return at }
}

// opOutcome adapts a fleet result to the (completion, shard, error) shape:
// the representative completion and the primary.
func opOutcome(res fleet.OpResult) (Completion, int, error) {
	return res.Completion(), res.Primary(), res.Err
}

// GetAt is the open-loop Get. The value is a copy owned by the caller.
func (c *Cluster) GetAt(arrival Time, key []byte) (Completion, int, error) {
	if err := c.gate(); err != nil {
		return Completion{}, 0, err
	}
	return opOutcome(c.f.GetAt(constArrival(arrival), key))
}

// DeleteAt is the open-loop Delete.
func (c *Cluster) DeleteAt(arrival Time, key []byte) (Completion, int, error) {
	if err := c.gate(); err != nil {
		return Completion{}, 0, err
	}
	return opOutcome(c.f.DeleteAt(constArrival(arrival), key))
}

// ScanShardAt is the open-loop range query against one shard: up to n pairs
// with key ≥ start, drawn only from the keys routed to that shard. A
// cluster-wide scan fans one ScanShardAt out per shard and merges the
// sorted sub-results. The returned pairs are device-owned until the shard's
// next operation.
func (c *Cluster) ScanShardAt(shard int, arrival Time, start []byte, n int) (Completion, error) {
	if err := c.gate(); err != nil {
		return Completion{}, err
	}
	if shard < 0 || shard >= c.Shards() {
		return Completion{}, fmt.Errorf("%w: shard %d of %d", ErrInvalidOptions, shard, c.Shards())
	}
	return c.f.ScanAt(shard, arrival, start, n)
}

// Sync flushes every shard (a fleet-wide FLUSH) and returns the merged
// completion time. An open split phase merges first, so hot-key deltas the
// transaction layer is still batching become durable too.
func (c *Cluster) Sync() (Time, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	if err := c.co.Flush(); err != nil {
		return 0, fmt.Errorf("anykey: split-phase flush: %w", err)
	}
	return c.f.Sync()
}

// Barrier drains every shard's in-flight requests and returns the merged
// cluster time.
func (c *Cluster) Barrier() (Time, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	return c.f.Barrier(), nil
}

// ResetBreakdowns clears every shard engine's queue-wait/service histograms,
// marking the start of a measurement phase (see Stats).
func (c *Cluster) ResetBreakdowns() {
	if c.closed.Load() {
		return
	}
	c.f.ResetBreakdowns()
}

// Stats merges every shard's live statistics into one rollup with a
// per-shard breakdown. The returned value is a point-in-time snapshot taken
// under each shard's lock, so Stats is safe to call concurrently with
// in-flight operations — a metrics scraper never observes a shard
// mid-operation.
func (c *Cluster) Stats() ClusterStats { return c.f.CollectStats().Stats }

// Metadata merges the shards' metadata reports, summing same-named
// structures.
func (c *Cluster) Metadata() []MetaStructure { return c.f.Metadata() }

// Blame merges every shard tracer's blame report into one cluster-wide
// attribution. Nil when the cluster was opened without Device.Trace.
func (c *Cluster) Blame(opts BlameOptions) *BlameReport { return c.f.Blame(opts) }

// Tracers returns the per-shard tracers, or nil when the cluster was
// opened without Device.Trace. Open-loop clients use them to annotate shard
// op records with timeout/retry attribution.
func (c *Cluster) Tracers() []*Tracer { return c.f.Tracers() }

// WriteChromeTrace writes the merged fleet trace as Chrome trace_event
// JSON: shard i's rows appear as processes named "shardN …" at a disjoint
// pid range, on a common virtual-time axis. It fails when the cluster was
// opened without Device.Trace.
func (c *Cluster) WriteChromeTrace(w io.Writer) error {
	trs := c.Tracers()
	if trs == nil {
		return fmt.Errorf("%w: cluster opened without Device.Trace", ErrUnsupported)
	}
	return trace.WriteChromeTraceCluster(w, trs)
}

// Footprint sums the flash payload-store memory accounting across shards:
// what a raw store would retain versus what the configured stores do.
func (c *Cluster) Footprint() StoreFootprint {
	return c.Stats().Store
}

// CacheStats sums the shards' host-cache counters; ok is false when the
// cluster was opened without Device.Cache.
func (c *Cluster) CacheStats() (CacheStats, bool) {
	st := c.Stats().Cache
	if st == nil {
		return CacheStats{}, false
	}
	return *st, true
}

// Close marks the cluster closed; further operations return ErrClosed. It
// also eagerly frees every shard's page-payload memory (each shard under its
// own lock), so harnesses that open fleets in sequence keep only the live
// one's pages in the heap. It is idempotent and never fails (the simulation
// holds no other external resources).
func (c *Cluster) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.f.ReleaseMemory()
	}
	return nil
}
