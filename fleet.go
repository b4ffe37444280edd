package anykey

import (
	"fmt"

	"anykey/internal/cluster/fleet"
)

// Fleet-facing re-exports. The per-replica open-loop calls (FleetPutAt,
// FleetGetAt, FleetDeleteAt) work at every factor; the topology and fault
// calls (AddShard, KillShard, ...) only apply to a Cluster opened with
// ClusterOptions.Replication.Factor ≥ 1.
type (
	// ReplicationOptions selects the replica protocol: Factor (R), the
	// WriteQuorum (W ≤ R) a write needs for acknowledgment, and the
	// ReadMode.
	ReplicationOptions = fleet.Replication
	// FleetReadMode selects read-one-with-fallback or read-repair.
	FleetReadMode = fleet.ReadMode
	// FleetKillCause records what killed a member device.
	FleetKillCause = fleet.KillCause
	// FleetStats is the fleet's merged statistics view: the cluster rollup
	// plus replication/migration/rebuild counters and per-member lifecycle
	// rows.
	FleetStats = fleet.Stats
	// ReplicationStats are the fleet-level replication counters.
	ReplicationStats = fleet.ReplStats
	// Migration is an in-flight topology change (AddShard/RemoveShard); it
	// must be stepped (or Run) to completion while traffic keeps flowing.
	Migration = fleet.Migration
	// Rebuild is an in-flight device rebuild after KillShard.
	Rebuild = fleet.Rebuild
	// MigrationStatus describes the in-flight topology change, if any.
	MigrationStatus = fleet.MigrationStatus
	// FleetOpResult is one replicated operation's full outcome, exposed by
	// the per-replica entry points for drivers that need per-replica detail
	// (the harness's open-loop client times writes by it).
	FleetOpResult = fleet.OpResult
	// ArrivalFunc maps a member ID to an arrival instant in that member's
	// clock domain, for open-loop replicated submission.
	ArrivalFunc = fleet.ArrivalFunc
)

// Read modes for ReplicationOptions.ReadMode.
const (
	// ReadOne serves from the first alive owner, falling back on a down
	// replica or a miss (default).
	ReadOne = fleet.ReadOne
	// ReadRepair reads every alive owner and re-writes the serving value
	// onto divergent replicas.
	ReadRepair = fleet.ReadRepair
)

// Kill causes for Cluster.KillShard.
const (
	// KillPowerCut kills the device as a power cut mid-traffic would.
	KillPowerCut = fleet.KillPowerCut
	// KillGrownBad kills the device as grown-bad block exhaustion would.
	KillGrownBad = fleet.KillGrownBad
)

// Fleet sentinel errors.
var (
	// ErrQuorumNotMet reports a write acknowledged by fewer than
	// WriteQuorum alive replicas (the replicas that executed keep it).
	ErrQuorumNotMet = fleet.ErrQuorumNotMet
	// ErrShardDown reports an operation whose every replica is dead.
	ErrShardDown = fleet.ErrShardDown
	// ErrMigrationInProgress rejects a topology change while another
	// migration is still streaming keys.
	ErrMigrationInProgress = fleet.ErrMigrationInProgress
)

// fleetGate rejects the topology and fault calls on closed or
// non-replicated clusters.
func (c *Cluster) fleetGate() error {
	if err := c.gate(); err != nil {
		return err
	}
	if c.opts.Replication.Factor == 0 {
		return fmt.Errorf("%w: cluster opened without Replication (set ClusterOptions.Replication.Factor)", ErrUnsupported)
	}
	return nil
}

// Replication returns the replica protocol in force (zero Factor on a
// non-replicated cluster).
func (c *Cluster) Replication() ReplicationOptions { return c.opts.Replication }

// AddShard brings a fresh member device into the ring — same configuration
// as the initial shards, seeded by its member ID — and returns the
// migration streaming the ~1/N key fraction the new topology assigns it.
// Traffic keeps flowing while the caller steps the migration; reads
// double-read through old owners until it commits.
func (c *Cluster) AddShard() (*Migration, error) {
	if err := c.fleetGate(); err != nil {
		return nil, err
	}
	return c.f.AddShard()
}

// RemoveShard takes member id out of the ring, streaming its keys to their
// new owners before the member retires at the migration's commit.
func (c *Cluster) RemoveShard(id int) (*Migration, error) {
	if err := c.fleetGate(); err != nil {
		return nil, err
	}
	return c.f.RemoveShard(id)
}

// KillShard kills member id's device mid-traffic (power cut or grown-bad
// exhaustion): its contents become unavailable, surviving replicas serve
// reads, and writes keep acknowledging while WriteQuorum alive owners
// remain.
func (c *Cluster) KillShard(id int, cause FleetKillCause) error {
	if err := c.fleetGate(); err != nil {
		return err
	}
	return c.f.KillShard(id, cause)
}

// RebuildShard replaces a dead member's hardware and returns the steppable
// refill from the surviving replicas' scans. The member rejoins the read
// path and the write quorum when the refill drains.
func (c *Cluster) RebuildShard(id int) (*Rebuild, error) {
	if err := c.fleetGate(); err != nil {
		return nil, err
	}
	return c.f.RebuildShard(id)
}

// Migrating returns the in-flight topology change's status.
func (c *Cluster) Migrating() MigrationStatus { return c.f.Migrating() }

// ShardState returns member id's lifecycle state ("alive", "dead",
// "rebuilding", "retired") and, for dead members, the kill cause.
func (c *Cluster) ShardState(id int) (state, cause string, err error) {
	if err := c.fleetGate(); err != nil {
		return "", "", err
	}
	return c.f.State(id)
}

// FleetStats returns the full fleet statistics view: the Stats() rollup
// plus replication counters and per-member lifecycle rows.
func (c *Cluster) FleetStats() (FleetStats, error) {
	if err := c.fleetGate(); err != nil {
		return FleetStats{}, err
	}
	return c.f.CollectStats(), nil
}

// FleetPutAt is the per-replica open-loop Put: each owner receives the
// request at arrival(member), an instant in that member's own clock domain,
// and the full per-replica outcome comes back. It works at every factor (a
// zero Factor is a Factor-1 fleet, one replica per key). A missed quorum is
// a verdict in FleetOpResult.Err, not a call error.
func (c *Cluster) FleetPutAt(arrival ArrivalFunc, key, value []byte) (FleetOpResult, error) {
	if err := c.gate(); err != nil {
		return FleetOpResult{}, err
	}
	return c.f.PutAt(arrival, key, value), nil
}

// FleetGetAt is the per-replica open-loop Get, at every factor. A read with
// no readable owner is a verdict in FleetOpResult.Err.
func (c *Cluster) FleetGetAt(arrival ArrivalFunc, key []byte) (FleetOpResult, error) {
	if err := c.gate(); err != nil {
		return FleetOpResult{}, err
	}
	return c.f.GetAt(arrival, key), nil
}

// FleetDeleteAt is the per-replica open-loop Delete, at every factor.
func (c *Cluster) FleetDeleteAt(arrival ArrivalFunc, key []byte) (FleetOpResult, error) {
	if err := c.gate(); err != nil {
		return FleetOpResult{}, err
	}
	return c.f.DeleteAt(arrival, key), nil
}
