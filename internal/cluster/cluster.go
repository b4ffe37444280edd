// Package cluster holds what every host-side sharding path shares: the
// consistent-hash Ring and the routing hash keys are placed with, the
// routing Policy, the batch vocabulary (BatchOp, BatchResult) and the
// merged statistics shape (Stats, ShardStats). The executor that routes
// operations onto member devices lives in internal/cluster/fleet.
package cluster

import (
	"fmt"
	"slices"

	"anykey/internal/cache"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/stats"
	"anykey/internal/xxhash"
)

// Policy selects how keys map to shards.
type Policy int

const (
	// RouteConsistent places shards on a hash ring with VirtualNodes points
	// each and routes a key to the next point clockwise from its hash — the
	// classic consistent-hashing layout, where growing or shrinking a fleet
	// would move only the keys between neighbouring points.
	RouteConsistent Policy = iota
	// RouteModulo routes a key to hash(key) mod shards: perfectly balanced
	// for a fixed fleet, maximally disruptive to change.
	RouteModulo
)

var policyNames = map[Policy]string{
	RouteConsistent: "consistent",
	RouteModulo:     "modulo",
}

// String returns the policy's name.
func (p Policy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ringPoint is one virtual node: a hash position owned by a member.
type ringPoint struct {
	hash   uint32
	member int32
}

// Ring is the consistent-hash ring over a set of member IDs: VirtualNodes
// points per member, sorted by hash. It is a pure function of (member IDs,
// vnodes), so two processes — or the same fleet before and after a topology
// change — agree on every key's owners without coordination. The zero Ring
// is empty.
type Ring struct {
	points []ringPoint
}

// BuildRing hashes vnodes points per member onto the ring and sorts them.
// Point hashes come from the member ID and replica indices alone, so the
// ring is a pure function of (members, vnodes) and routing is reproducible
// across processes. For members 0..N-1 this is exactly the fixed-fleet ring
// the cluster has always built.
func BuildRing(members []int32, vnodes int) Ring {
	ring := make([]ringPoint, 0, len(members)*vnodes)
	var buf [8]byte
	for _, m := range members {
		s := uint32(m)
		for v := 0; v < vnodes; v++ {
			buf[0] = byte(s)
			buf[1] = byte(s >> 8)
			buf[2] = byte(s >> 16)
			buf[3] = byte(s >> 24)
			buf[4] = byte(v)
			buf[5] = byte(v >> 8)
			buf[6] = byte(v >> 16)
			buf[7] = byte(v >> 24)
			ring = append(ring, ringPoint{hash: hashBytes(buf[:]), member: m})
		}
	}
	// Sort by (hash, member) so equal hashes break ties deterministically.
	slices.SortFunc(ring, func(a, b ringPoint) int {
		switch {
		case a.hash != b.hash:
			if a.hash < b.hash {
				return -1
			}
			return 1
		case a.member != b.member:
			if a.member < b.member {
				return -1
			}
			return 1
		}
		return 0
	})
	return Ring{points: ring}
}

// Len returns the number of ring points.
func (r Ring) Len() int { return len(r.points) }

// successor returns the index of the first ring point at or clockwise-after
// hash h, wrapping at the top.
func (r Ring) successor(h uint32) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return lo
}

// Owner returns the member owning key: the next point clockwise from the
// key's hash.
func (r Ring) Owner(key []byte) int32 { return r.OwnerHash(hashBytes(key)) }

// OwnerHash is Owner for a pre-computed routing hash.
func (r Ring) OwnerHash(h uint32) int32 { return r.points[r.successor(h)].member }

// Owners appends to dst the first n DISTINCT members met walking clockwise
// from the key's hash — the replica set for replication factor n. Fewer than
// n members on the ring yields all of them. The walk starts at the key's
// owner, so Owners(key, 1)[0] == Owner(key) and growing n only ever appends.
func (r Ring) Owners(dst []int32, key []byte, n int) []int32 {
	return r.OwnersHash(dst, hashBytes(key), n)
}

// OwnersHash is Owners for a pre-computed routing hash.
func (r Ring) OwnersHash(dst []int32, h uint32, n int) []int32 {
	start := r.successor(h)
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !containsMember(dst[base:], m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// containsMember reports whether ids holds m (replica sets are tiny, so a
// linear scan beats any set structure).
func containsMember(ids []int32, m int32) bool {
	for _, v := range ids {
		if v == m {
			return true
		}
	}
	return false
}

// BatchResult reports one batch: a completion, routed shard and error per
// input operation (input order preserved), plus the merged batch span.
type BatchResult struct {
	// Completions holds each operation's host completion; Values of Gets are
	// copied out of the device, so unlike single-device Gets they stay valid
	// after subsequent operations.
	Completions []host.Completion
	// Shards holds the shard index each operation routed to.
	Shards []int
	// Errs holds each operation's error (nil on success; kv.ErrNotFound for
	// a Get of an absent key).
	Errs []error
	// Start is the merged cluster time over the involved shards when the
	// batch was submitted; Done the merged completion time. The batch as a
	// whole "completes" at Done — the semantics of a scatter-gather
	// submission that acknowledges when its last shard does.
	Start, Done sim.Time

	// Atomic marks a batch that committed (or aborted) as one unit through
	// the transaction layer's 2PC path rather than best-effort per shard;
	// TxnID is then the commit's transaction identifier. Both are zero on
	// plain Multi* batches.
	Atomic bool
	TxnID  uint64
}

// Latency returns the merged batch span Done − Start.
func (b *BatchResult) Latency() sim.Duration { return b.Done.Sub(b.Start) }

// FirstErr returns the first per-operation error in input order, nil if all
// operations succeeded.
func (b *BatchResult) FirstErr() error {
	for _, err := range b.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BatchOp is one operation of a mixed put/delete batch: a Put of Key →
// Value, or — when Delete is set — a Delete of Key (Value ignored). The
// transaction layer expresses intent stamping, commits and cleanups as
// BatchOp batches so a single code path carries them.
type BatchOp struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// ShardStats is the per-shard slice of a cluster stats rollup.
type ShardStats struct {
	Shard     int
	Ops       int64    // requests carried by this shard
	Now       sim.Time // the shard's clock
	LiveKeys  int64
	LiveBytes int64
	Flash     nand.Counters

	// Background-machinery activity, per shard — the metrics endpoint
	// exposes these as per-shard series so a scrape can watch one shard's
	// GC debt grow while its neighbours idle.
	TreeCompactions    int64
	LogCompactions     int64
	ChainedCompactions int64
	GCRuns             int64
	GCRelocations      int64

	// Store is the shard's flash payload-store memory accounting.
	Store nand.StoreFootprint
	// Cache holds the shard's host-cache counters; nil when the shard runs
	// uncached.
	Cache *cache.Stats
}

// Stats is the merged statistics view of a cluster: fleet-wide rollups plus
// the per-shard breakdown they were merged from.
type Stats struct {
	Shards int
	Ops    int64
	Now    sim.Time // merged cluster clock (max over shards)

	LiveKeys, LiveBytes int64
	Flash               nand.Counters

	TreeCompactions, LogCompactions, ChainedCompactions int64
	GCRuns, GCRelocations                               int64

	// Store sums the shards' payload-store footprints.
	Store nand.StoreFootprint
	// Cache sums the shards' host-cache counters; nil when no shard runs a
	// host cache.
	Cache *cache.Stats

	// ReadAccesses merges every shard's flash-accesses-per-read histogram.
	ReadAccesses *stats.IntHist

	// QueueWait and Service merge every shard engine's latency breakdown.
	QueueWait, Service stats.Histogram

	PerShard []ShardStats
}

// CacheStatsOf snapshots the host-cache counters of a (possibly wrapped)
// shard device; nil when the shard runs uncached.
func CacheStatsOf(dev device.KVSSD) *cache.Stats {
	if c, ok := dev.(*cache.Cache); ok {
		st := c.CacheStats()
		return &st
	}
	return nil
}

// hashBytes is the routing hash. xxhash32 with a fixed seed: fast, stable
// across processes, and unrelated to the devices' internal hash-list seeds
// so routing cannot correlate with in-device placement.
func hashBytes(b []byte) uint32 { return xxhash.Sum32Seed(b, routingSeed) }

// HashKey exposes the routing hash to the fleet layer, which routes against
// the rings this package builds.
func HashKey(b []byte) uint32 { return hashBytes(b) }

// routingSeed separates the routing hash stream from every other xxhash use
// in the simulator (device hash lists seed differently per device).
const routingSeed = 0x616e796b // "anyk"
