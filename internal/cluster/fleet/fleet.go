// Package fleet is the host-side scale-out layer over the simulated KV-SSD
// shards: one keyspace routed across N member devices by the consistent-hash
// ring internal/cluster builds, with the ring's successor walk yielding R
// distinct owners per key, live topology change (add/remove a member with
// streamed key migration and double-reads during handoff), and device death
// with rebuild from the surviving replicas.
//
// The layer reproduces the standard deployment shape for KV-SSD fleets
// (host-side sharding, as surveyed by Doekemeijer & Trivedi and exercised by
// partitioned stores like F2). At R = 1 it is a plain sharded cluster: every
// key has one owner, and a fixed fleet may route by hash mod N
// (cluster.RouteModulo) instead of the ring.
//
// # Replication
//
// A key's replica set is the first R distinct members met walking the ring
// clockwise from its hash (cluster.Ring.Owners). Writes execute on every
// alive owner, in ring order; the write is ACKNOWLEDGED only when at least
// WriteQuorum fully-alive owners succeeded, else it reports ErrQuorumNotMet
// — the executed replicas keep the data (the device cannot be un-asked),
// exactly as a timed-out request does. Reads are read-one with fallback:
// the first alive owner serves, later owners are consulted only when the
// earlier ones are down or miss (which is also how double-reads during
// migration and reads during a rebuild resolve). ReadRepair mode reads all
// alive owners and re-writes the serving value onto any replica that
// diverged.
//
// # Clock domains
//
// Every member keeps its own engine and virtual clock domain, starting at
// the simulation epoch and advancing only when the member carries requests.
// A replicated operation touches R domains; its instants are merged (a
// write acks at the WriteQuorum-th earliest replica completion, merged
// numerically) and never propagated, so a fleet driven single-threaded is
// bit-for-bit deterministic. Batches complete at the maximum of their
// replicas' completion times, and Now is the maximum over member clocks.
//
// # Concurrency
//
// Member mutexes serialize engine/device access (one replica at a time, in
// ring-walk order); the fleet mutex guards topology (the ring, the member
// list, migration state) and the replication counters. Concurrent callers
// are safe — the network server drives one goroutine per member — but, as
// everywhere in this codebase, the locks serialize without reordering:
// single-threaded callers see identical results with or without observers.
package fleet

import (
	"errors"
	"fmt"
	"sync"

	"anykey/internal/cluster"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// Sentinel errors of the replicated fleet.
var (
	// ErrQuorumNotMet reports a write acknowledged by fewer than WriteQuorum
	// alive replicas. The replicas that did execute keep the write.
	ErrQuorumNotMet = errors.New("fleet: write quorum not met")
	// ErrShardDown reports an operation whose every replica is dead.
	ErrShardDown = errors.New("fleet: every replica for the key is down")
	// ErrMigrationInProgress rejects a topology change (AddShard,
	// RemoveShard, RemoveShard's commit, a rebuild of a migrating fleet)
	// while another migration is still streaming keys.
	ErrMigrationInProgress = errors.New("fleet: topology migration in progress")
)

// ReadMode selects the replicated read protocol.
type ReadMode int

const (
	// ReadOne serves from the first alive owner, falling back along the
	// ring walk on a down replica or a miss.
	ReadOne ReadMode = iota
	// ReadRepair reads every alive owner, serves the first alive owner's
	// value, and re-writes it onto replicas that diverged or missed.
	ReadRepair
)

// String returns the read mode's name.
func (m ReadMode) String() string {
	if m == ReadRepair {
		return "read-repair"
	}
	return "read-one"
}

// Replication parameterises the replica protocol.
type Replication struct {
	// Factor is R, the distinct owners per key (≥ 1).
	Factor int
	// WriteQuorum is the alive-replica successes required to acknowledge a
	// write (default Factor = write-all).
	WriteQuorum int
	// ReadMode selects read-one-with-fallback or read-repair.
	ReadMode ReadMode
}

// KillCause records what killed a member, mirroring the two terminal
// failure modes internal/fault injects on a single device: a power cut
// mid-traffic, or grown-bad block exhaustion retiring the flash array.
// Either way the device's contents are unavailable to the fleet from the
// kill instant on; a rebuild replaces the hardware outright and re-fills it
// from the surviving replicas.
type KillCause int

const (
	KillPowerCut KillCause = iota
	KillGrownBad
)

// String returns the cause's name.
func (c KillCause) String() string {
	if c == KillGrownBad {
		return "grown-bad"
	}
	return "power-cut"
}

// memberState is a member's lifecycle position.
type memberState int32

const (
	// stateAlive members serve reads, take writes, and count toward quorum.
	stateAlive memberState = iota
	// stateDead members are skipped entirely (device contents unavailable).
	stateDead
	// stateRebuilding members take new writes (so the refill cannot race
	// fresh traffic) but serve no reads and count toward no quorum until
	// the rebuild commits.
	stateRebuilding
	// stateRetired members were removed by RemoveShard; they stay in the
	// member table (IDs are never reused) but own nothing.
	stateRetired
)

func (s memberState) String() string {
	switch s {
	case stateDead:
		return "dead"
	case stateRebuilding:
		return "rebuilding"
	case stateRetired:
		return "retired"
	}
	return "alive"
}

// member is one fleet device with its private engine and clock domain, plus
// its lifecycle state. mu guards the engine, the device beneath it and the
// ops tally: operations hold it while they run, and stats collection holds
// it while it snapshots, so an observer never reads a device mid-operation.
type member struct {
	mu    sync.Mutex
	id    int32
	dev   device.KVSSD
	eng   *host.Engine
	tr    *trace.Tracer
	ops   int64
	state memberState
	cause KillCause // meaningful only after a kill
}

// DeviceFactory builds the device (and optional tracer) for a new member —
// AddShard's fresh shard, or a rebuild's replacement hardware. The fleet
// owns seeding policy through this hook, so replacements are deterministic.
type DeviceFactory func(memberID int) (device.KVSSD, *trace.Tracer, error)

// Config parameterises a fleet over already-constructed member devices.
type Config struct {
	// QueueDepth is each member engine's submission queue depth (default 1).
	QueueDepth int
	// VirtualNodes is the ring points per member (default 64).
	VirtualNodes int
	// Policy is the routing policy (default cluster.RouteConsistent).
	// cluster.RouteModulo routes a key to member hash mod N; it needs
	// Factor 1 and a fixed membership, so AddShard and RemoveShard reject it.
	Policy cluster.Policy
	// Repl is the replication protocol (Factor default 1, WriteQuorum
	// default Factor).
	Repl Replication
	// NewDevice builds devices for AddShard and RebuildShard. Required.
	NewDevice DeviceFactory
	// Tracers, when non-nil, holds one tracer per initial member.
	Tracers []*trace.Tracer
	// ScanChunk is the keys-per-scan granularity migration and rebuild
	// streams use (default 64).
	ScanChunk int
}

// Fleet is the elastic replicated cluster.
type Fleet struct {
	mu      sync.Mutex
	members []*member // by member ID; IDs are never reused
	ring    cluster.Ring
	ringIDs []int32 // committed ring membership, ascending
	policy  cluster.Policy
	qd      int
	vnodes  int
	repl    Replication
	newDev  DeviceFactory
	chunk   int

	mig   *Migration // non-nil while a topology change streams keys
	epoch int64      // migration epochs committed

	// Replication/migration/rebuild counters (guarded by mu).
	quorumFailures int64
	readFallbacks  int64
	readRepairs    int64
	migratedKeys   int64
	migratedBytes  int64
	migrationOps   int64
	cleanupDels    int64
	rebuilds       int64
	rebuiltKeys    int64
	rebuiltBytes   int64

	// scratch owner buffers, reused when the caller is single-threaded
	// (replicated routing must not allocate per op on the hot path).
	ownScratch sync.Pool
}

// New builds a fleet over the initial member devices (IDs 0..len-1).
func New(devs []device.KVSSD, cfg Config) (*Fleet, error) {
	if len(devs) == 0 {
		return nil, errors.New("fleet: no member devices")
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 1
	}
	if cfg.VirtualNodes == 0 {
		cfg.VirtualNodes = 64
	}
	if cfg.ScanChunk == 0 {
		cfg.ScanChunk = 64
	}
	if cfg.Repl.Factor == 0 {
		cfg.Repl.Factor = 1
	}
	if cfg.Repl.WriteQuorum == 0 {
		cfg.Repl.WriteQuorum = cfg.Repl.Factor
	}
	switch {
	case cfg.Repl.Factor < 1 || cfg.Repl.Factor > len(devs):
		return nil, fmt.Errorf("fleet: replication factor %d with %d members", cfg.Repl.Factor, len(devs))
	case cfg.Repl.WriteQuorum < 1 || cfg.Repl.WriteQuorum > cfg.Repl.Factor:
		return nil, fmt.Errorf("fleet: write quorum %d with factor %d", cfg.Repl.WriteQuorum, cfg.Repl.Factor)
	case cfg.Policy != cluster.RouteConsistent && cfg.Policy != cluster.RouteModulo:
		return nil, fmt.Errorf("fleet: unknown routing policy %v", cfg.Policy)
	case cfg.Policy == cluster.RouteModulo && cfg.Repl.Factor > 1:
		return nil, fmt.Errorf("fleet: %v routing with replication factor %d (replica sets are ring walks)", cfg.Policy, cfg.Repl.Factor)
	case cfg.NewDevice == nil:
		return nil, errors.New("fleet: Config.NewDevice is required")
	case cfg.Tracers != nil && len(cfg.Tracers) != len(devs):
		return nil, fmt.Errorf("fleet: %d tracers for %d members", len(cfg.Tracers), len(devs))
	}
	f := &Fleet{
		policy: cfg.Policy,
		qd:     cfg.QueueDepth,
		vnodes: cfg.VirtualNodes,
		repl:   cfg.Repl,
		newDev: cfg.NewDevice,
		chunk:  cfg.ScanChunk,
	}
	f.ownScratch.New = func() any { s := make([]int32, 0, 8); return &s }
	for i, dev := range devs {
		eng, err := host.New(dev, cfg.QueueDepth)
		if err != nil {
			return nil, fmt.Errorf("fleet: member %d: %w", i, err)
		}
		m := &member{id: int32(i), dev: dev, eng: eng}
		if cfg.Tracers != nil {
			m.tr = cfg.Tracers[i]
			eng.SetTracer(m.tr)
		}
		f.members = append(f.members, m)
		f.ringIDs = append(f.ringIDs, int32(i))
	}
	f.ring = cluster.BuildRing(f.ringIDs, f.vnodes)
	return f, nil
}

// Members returns the member IDs ever created (including dead and retired
// members — IDs are stable forever).
func (f *Fleet) Members() []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]int32, len(f.members))
	for i, m := range f.members {
		ids[i] = m.id
	}
	return ids
}

// RingMembers returns the committed ring membership.
func (f *Fleet) RingMembers() []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int32(nil), f.ringIDs...)
}

// Epoch returns the number of committed migration epochs.
func (f *Fleet) Epoch() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// State returns a member's lifecycle state name and kill cause ("" while
// never killed).
func (f *Fleet) State(id int) (state string, cause string, err error) {
	m, err := f.memberByID(int32(id))
	if err != nil {
		return "", "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == stateDead {
		return m.state.String(), m.cause.String(), nil
	}
	return m.state.String(), "", nil
}

func (f *Fleet) memberByID(id int32) (*member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) < 0 || int(id) >= len(f.members) {
		return nil, fmt.Errorf("fleet: no member %d", id)
	}
	return f.members[id], nil
}

// member returns member id. The member table only grows (AddShard appends
// under f.mu), so the lookup takes f.mu but the member may be used after.
func (f *Fleet) member(id int32) *member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[id]
}

// routeLocked appends hash h's committed owners to dst: the ring's
// successor walk, or under RouteModulo the single member h mod N. Callers
// hold f.mu.
func (f *Fleet) routeLocked(dst []int32, h uint32) []int32 {
	if f.policy == cluster.RouteModulo {
		return append(dst, f.ringIDs[h%uint32(len(f.ringIDs))])
	}
	return f.ring.OwnersHash(dst, h, f.repl.Factor)
}

// owners computes the key's owner walk under the committed ring and, when a
// migration is streaming, appends the old ring's owners not already present
// — the union a write must cover and the fallback order a double-read
// consults (new owners first, then the old). It also returns the member
// table read under the same lock, so callers index it without racing
// AddShard's append. The walk is pooled scratch: callers read it through
// the returned pointer and hand the pointer back to f.ownScratch.
func (f *Fleet) owners(key []byte) (*[]int32, []*member) {
	h := cluster.HashKey(key)
	sp := f.ownScratch.Get().(*[]int32)
	dst := (*sp)[:0]
	f.mu.Lock()
	dst = f.routeLocked(dst, h)
	if f.mig != nil {
		n := len(dst)
		tmp := f.mig.oldRing.OwnersHash(dst, h, f.repl.Factor)
		// Dedup the old-ring walk against the committed one.
		dst = dst[:n]
		for _, m := range tmp[n:] {
			if !containsID(dst, m) {
				dst = append(dst, m)
			}
		}
	}
	members := f.members
	f.mu.Unlock()
	*sp = dst
	return sp, members
}

func containsID(ids []int32, m int32) bool {
	for _, v := range ids {
		if v == m {
			return true
		}
	}
	return false
}

// PrimaryFor returns the key's first committed owner — its only owner at
// Factor 1, what a single-copy cluster calls the key's shard.
func (f *Fleet) PrimaryFor(key []byte) int {
	h := cluster.HashKey(key)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.policy == cluster.RouteModulo {
		return int(f.ringIDs[h%uint32(len(f.ringIDs))])
	}
	return int(f.ring.OwnerHash(h))
}

// ReplicaAttempt is one replica's slice of a replicated operation.
type ReplicaAttempt struct {
	Member int
	Comp   host.Completion
	Err    error
	// Quorum marks a write replica that counts toward WriteQuorum: it
	// succeeded on a fully-alive member (a rebuilding member executes
	// writes but does not count). Always false for reads.
	Quorum bool
}

// OpResult is the outcome of one replicated operation.
type OpResult struct {
	// Owners is the owner walk used (committed ring first; during a
	// migration the old ring's extra owners follow).
	Owners []int
	// Replicas holds the device attempts actually executed, in walk order.
	Replicas []ReplicaAttempt
	// Acked reports a write that met its quorum, or a read that found a
	// value.
	Acked bool
	// AckDone is a write's acknowledgment instant — the WriteQuorum-th
	// earliest successful replica completion, merged numerically across the
	// replicas' clock domains — or a read's serving completion time.
	AckDone sim.Time
	// Served is the member that served a read (-1 otherwise).
	Served int
	// Value is a read's payload, copied out of the serving device; Pairs a
	// scan's results.
	Value []byte
	Pairs []kv.Pair
	// Err is the operation verdict: nil, ErrQuorumNotMet (wrapping the first
	// replica's error when one failed), ErrShardDown, kv.ErrNotFound, or the
	// device error that failed every read attempt.
	Err error
}

// Primary returns the first member of the owner walk: the key's shard in a
// single-copy fleet.
func (r *OpResult) Primary() int { return r.Owners[0] }

// Completion picks one representative host completion: a read's serving
// replica (carrying the copied value), a write's quorum-defining replica
// (the one whose Done is the acknowledgment instant), or — on failure — the
// latest attempt, so callers still see the op's span. At Factor 1 it is the
// single replica's completion.
func (r *OpResult) Completion() host.Completion {
	if r.Served >= 0 {
		for _, ra := range r.Replicas {
			if ra.Member == r.Served {
				comp := ra.Comp
				comp.Value = r.Value
				return comp
			}
		}
	}
	if r.Acked {
		for _, ra := range r.Replicas {
			if ra.Err == nil && ra.Comp.Done == r.AckDone {
				return ra.Comp
			}
		}
	}
	var best host.Completion
	for _, ra := range r.Replicas {
		if ra.Comp.Done >= best.Done {
			best = ra.Comp
		}
	}
	return best
}

// ArrivalFunc maps a member ID to the arrival instant in that member's
// clock domain. Closed-loop paths pass nil (each replica issues when its
// earliest slot frees).
type ArrivalFunc func(member int) sim.Time

// write executes one replicated Put or Delete: every alive (or rebuilding)
// owner executes it in walk order, and the op acks iff at least WriteQuorum
// fully-alive owners succeeded.
func (f *Fleet) write(arrival ArrivalFunc, key, value []byte, del bool) OpResult {
	sp, members := f.owners(key)
	defer f.ownScratch.Put(sp)
	owners := *sp
	res := OpResult{Served: -1, Owners: toInts(owners), Replicas: make([]ReplicaAttempt, 0, len(owners))}
	var ackBuf [4]sim.Time
	ackTimes := ackBuf[:0]
	var cause error // the first replica error, kept for the quorum verdict
	for _, id := range owners {
		m := members[id]
		m.mu.Lock()
		st := m.state
		if st == stateDead || st == stateRetired {
			m.mu.Unlock()
			continue
		}
		var comp host.Completion
		var err error
		switch {
		case del && arrival == nil:
			comp, err = m.eng.Delete(key)
		case del:
			comp, err = m.eng.DeleteAt(arrival(int(id)), key)
		case arrival == nil:
			comp, err = m.eng.Put(key, value)
		default:
			comp, err = m.eng.PutAt(arrival(int(id)), key, value)
		}
		m.ops++
		m.mu.Unlock()
		quorum := err == nil && st == stateAlive
		res.Replicas = append(res.Replicas, ReplicaAttempt{Member: int(id), Comp: comp, Err: err, Quorum: quorum})
		if quorum {
			ackTimes = append(ackTimes, comp.Done)
		}
		if err != nil && cause == nil {
			cause = err
		}
	}
	if len(res.Replicas) == 0 {
		res.Err = ErrShardDown
		return res
	}
	if len(ackTimes) < f.repl.WriteQuorum {
		res.Err = ErrQuorumNotMet
		if cause != nil {
			res.Err = fmt.Errorf("%w: %w", ErrQuorumNotMet, cause)
		}
		f.mu.Lock()
		f.quorumFailures++
		f.mu.Unlock()
		return res
	}
	// The ack instant is the quorum-th earliest replica completion: the
	// client is satisfied the moment W replicas confirmed, whatever the
	// stragglers do. Replica counts are tiny; insertion sort.
	for i := 1; i < len(ackTimes); i++ {
		for j := i; j > 0 && ackTimes[j] < ackTimes[j-1]; j-- {
			ackTimes[j], ackTimes[j-1] = ackTimes[j-1], ackTimes[j]
		}
	}
	res.Acked = true
	res.AckDone = ackTimes[f.repl.WriteQuorum-1]
	return res
}

// read executes one replicated Get: the first alive owner serves; a down
// replica or a miss falls back along the walk (double-reads during
// migration resolve through exactly this fallback). In ReadRepair mode
// every alive owner is read and divergent replicas are re-written with the
// serving value.
func (f *Fleet) read(arrival ArrivalFunc, key []byte) OpResult {
	sp, members := f.owners(key)
	defer f.ownScratch.Put(sp)
	owners := *sp
	res := OpResult{Served: -1, Owners: toInts(owners), Replicas: make([]ReplicaAttempt, 0, len(owners))}
	repair := f.repl.ReadMode == ReadRepair
	var repairTargets []int32
	var readErr error // the first failure other than a miss
	tried := 0
	for walk, id := range owners {
		m := members[id]
		m.mu.Lock()
		st := m.state
		if st != stateAlive {
			m.mu.Unlock()
			continue
		}
		if res.Served >= 0 && !repair {
			m.mu.Unlock()
			break
		}
		var comp host.Completion
		var err error
		if arrival == nil {
			comp, err = m.eng.Get(key)
		} else {
			comp, err = m.eng.GetAt(arrival(int(id)), key)
		}
		if comp.Value != nil {
			// Values are device-owned until the member's next operation; a
			// replicated read touches several members, so copy out.
			comp.Value = append([]byte(nil), comp.Value...)
		}
		m.ops++
		m.mu.Unlock()
		tried++
		res.Replicas = append(res.Replicas, ReplicaAttempt{Member: int(id), Comp: comp, Err: err})
		if err != nil && readErr == nil && !errors.Is(err, kv.ErrNotFound) {
			readErr = err
		}
		switch {
		case res.Served < 0 && err == nil:
			res.Served = int(id)
			res.Value = comp.Value
			res.AckDone = comp.Done
			res.Acked = true
			// A serve past the walk's head is a fallback, whether the
			// earlier owners were down (skipped) or missed (tried).
			if walk > 0 {
				f.mu.Lock()
				f.readFallbacks++
				f.mu.Unlock()
			}
		case res.Served >= 0 && (err != nil || !bytesEqual(comp.Value, res.Value)):
			// Divergent or missing replica behind the serving one.
			repairTargets = append(repairTargets, id)
		}
	}
	if tried == 0 {
		res.Err = ErrShardDown
		return res
	}
	if res.Served < 0 {
		res.Err = kv.ErrNotFound
		if readErr != nil {
			res.Err = readErr
		}
		return res
	}
	repaired := 0
	for _, id := range repairTargets {
		m := members[id]
		m.mu.Lock()
		if m.state == stateAlive {
			if _, err := m.eng.Put(key, res.Value); err == nil {
				m.ops++
				repaired++
			}
		}
		m.mu.Unlock()
	}
	if repaired > 0 {
		f.mu.Lock()
		f.readRepairs += int64(repaired)
		f.mu.Unlock()
	}
	return res
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func toInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	return out
}

// Put stores one pair on every alive owner (closed loop).
func (f *Fleet) Put(key, value []byte) OpResult { return f.write(nil, key, value, false) }

// Apply runs a mixed put/delete batch through the replicated write path —
// every op fans out to its full replica set and must meet WriteQuorum. The
// first failed op aborts the batch (later ops are not attempted), so the
// transaction layer's sync-before-advance ordering holds per phase.
func (f *Fleet) Apply(ops []cluster.BatchOp) error {
	for i, op := range ops {
		var res OpResult
		if op.Delete {
			res = f.write(nil, op.Key, nil, true)
		} else {
			res = f.write(nil, op.Key, op.Value, false)
		}
		if res.Err != nil {
			return fmt.Errorf("fleet: apply op %d: %w", i, res.Err)
		}
	}
	return nil
}

// Batch runs n single-key operations one at a time, in input order, and
// reassembles them into the cluster batch shape: each op's representative
// completion, primary member and verdict. Start is the latest clock, read
// before the batch, among the members the batch touched; Done the latest
// replica completion, never before Start — the semantics of a
// scatter-gather submission that acknowledges when its last member does.
// Members are independent clock domains, so running the ops in input order
// gives the same completions as grouping them by member.
func (f *Fleet) Batch(n int, op func(i int) OpResult) *cluster.BatchResult {
	clocks := f.memberClocks()
	out := &cluster.BatchResult{
		Completions: make([]host.Completion, n),
		Shards:      make([]int, n),
		Errs:        make([]error, n),
	}
	var done sim.Time
	for i := 0; i < n; i++ {
		res := op(i)
		out.Completions[i] = res.Completion()
		out.Shards[i] = res.Primary()
		out.Errs[i] = res.Err
		for _, ra := range res.Replicas {
			if ra.Member < len(clocks) && clocks[ra.Member] > out.Start {
				out.Start = clocks[ra.Member]
			}
			done = max(done, ra.Comp.Done)
		}
	}
	out.Done = max(out.Start, done)
	return out
}

// memberClocks snapshots every member's clock, indexed by member ID.
func (f *Fleet) memberClocks() []sim.Time {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	out := make([]sim.Time, len(members))
	for i, m := range members {
		m.mu.Lock()
		out[i] = m.eng.Now()
		m.mu.Unlock()
	}
	return out
}

// Delete removes one key on every alive owner (closed loop).
func (f *Fleet) Delete(key []byte) OpResult { return f.write(nil, key, nil, true) }

// Get reads one key, read-one with fallback (closed loop).
func (f *Fleet) Get(key []byte) OpResult { return f.read(nil, key) }

// PutAt is the open-loop replicated Put: arrival maps each replica's
// arrival instant into that member's clock domain.
func (f *Fleet) PutAt(arrival ArrivalFunc, key, value []byte) OpResult {
	return f.write(arrival, key, value, false)
}

// DeleteAt is the open-loop replicated Delete.
func (f *Fleet) DeleteAt(arrival ArrivalFunc, key []byte) OpResult {
	return f.write(arrival, key, nil, true)
}

// GetAt is the open-loop replicated Get.
func (f *Fleet) GetAt(arrival ArrivalFunc, key []byte) OpResult {
	return f.read(arrival, key)
}

// ScanAt runs an open-loop range query against ONE member (the per-shard
// scan the network server fans out; replication does not merge scans).
func (f *Fleet) ScanAt(id int, arrival sim.Time, start []byte, n int) (host.Completion, error) {
	m, err := f.memberByID(int32(id))
	if err != nil {
		return host.Completion{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == stateDead {
		return host.Completion{}, ErrShardDown
	}
	comp, err := m.eng.ScanAt(arrival, start, n)
	m.ops++
	return comp, err
}

// Now returns the merged fleet clock: the maximum over member clocks.
func (f *Fleet) Now() sim.Time {
	var mx sim.Time
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		t := m.eng.Now()
		m.mu.Unlock()
		if t > mx {
			mx = t
		}
	}
	return mx
}

// MemberNow returns member id's clock.
func (f *Fleet) MemberNow(id int) sim.Time {
	m, err := f.memberByID(int32(id))
	if err != nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Now()
}

// Barrier drains every live member's in-flight requests (clock domains stay
// independent) and returns the merged fleet time.
func (f *Fleet) Barrier() sim.Time {
	var mx sim.Time
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		if m.state != stateDead {
			if t := m.eng.Barrier(); t > mx {
				mx = t
			}
		}
		m.mu.Unlock()
	}
	return mx
}

// SyncShards flushes the members the transaction layer's durability
// barrier names (its shards are PrimaryFor results) and returns the merged
// completion time. When every key has one owner — Factor 1 with no
// migration streaming — a shard's keys live only on that member, so only
// the listed members sync. Otherwise replica sets overlap arbitrarily under
// the ring walk and would have to be chased through live migrations; the
// fleet then syncs every member, which is strictly stronger than the
// barrier needs.
func (f *Fleet) SyncShards(shards []int) (sim.Time, error) {
	f.mu.Lock()
	single := f.repl.Factor == 1 && f.mig == nil
	members := f.members
	f.mu.Unlock()
	listed := make([]*member, 0, len(shards))
	for _, s := range shards {
		if s < 0 || s >= len(members) {
			return 0, fmt.Errorf("fleet: SyncShards: member %d of %d", s, len(members))
		}
		listed = append(listed, members[s])
	}
	if !single {
		return f.syncMembers(members)
	}
	return f.syncMembers(listed)
}

// Sync flushes every live member and returns the merged completion time.
func (f *Fleet) Sync() (sim.Time, error) {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	return f.syncMembers(members)
}

// syncMembers flushes the given members, skipping dead and retired ones,
// and returns the merged completion time and the first error.
func (f *Fleet) syncMembers(members []*member) (sim.Time, error) {
	var done sim.Time
	var firstErr error
	for _, m := range members {
		m.mu.Lock()
		if m.state == stateDead || m.state == stateRetired {
			m.mu.Unlock()
			continue
		}
		comp, err := m.eng.Sync()
		m.ops++
		m.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: member %d sync: %w", m.id, err)
		}
		if comp.Done > done {
			done = comp.Done
		}
	}
	return done, firstErr
}

// ResetBreakdowns clears every member engine's latency histograms.
func (f *Fleet) ResetBreakdowns() {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		m.eng.ResetBreakdown()
		m.mu.Unlock()
	}
}

// ReleaseMemory eagerly frees every member's page-payload memory (fleet
// close), each member under its mutex. Dead members were already released at
// kill time; release is idempotent.
func (f *Fleet) ReleaseMemory() {
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		device.ReleaseMemory(m.dev)
		m.mu.Unlock()
	}
}

// Engine returns member id's host engine (tests and advanced drivers).
func (f *Fleet) Engine(id int) *host.Engine { return f.member(int32(id)).eng }

// Device returns member id's underlying device.
func (f *Fleet) Device(id int) device.KVSSD { return f.member(int32(id)).dev }

// Tracer returns member id's tracer (nil when untraced or unknown).
func (f *Fleet) Tracer(id int) *trace.Tracer {
	m, err := f.memberByID(int32(id))
	if err != nil {
		return nil
	}
	return m.tr
}

// Tracers returns the per-member tracers (nil when any member is untraced).
func (f *Fleet) Tracers() []*trace.Tracer {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*trace.Tracer
	for _, m := range f.members {
		if m.tr == nil {
			return nil
		}
		out = append(out, m.tr)
	}
	return out
}

// Blame merges every member tracer's blame report (nil when untraced).
func (f *Fleet) Blame(opts trace.BlameOptions) *trace.BlameReport {
	trs := f.Tracers()
	if trs == nil {
		return nil
	}
	reports := make([]*trace.BlameReport, 0, len(trs))
	for _, tr := range trs {
		reports = append(reports, tr.Blame(opts))
	}
	return trace.MergeBlameReports(reports...)
}
