package fleet

import (
	"anykey/internal/cache"
	"anykey/internal/cluster"
	"anykey/internal/device"
	"anykey/internal/nand"
	"anykey/internal/stats"
)

// ReplStats are the fleet-level replication, migration, and rebuild
// counters, all monotone since construction.
type ReplStats struct {
	// Factor and WriteQuorum echo the protocol in force.
	Factor      int
	WriteQuorum int
	ReadMode    string

	// Epoch counts committed migration epochs; MigrationActive reports a
	// topology change still streaming keys.
	Epoch           int64
	MigrationActive bool

	// QuorumFailures counts writes acknowledged by fewer than WriteQuorum
	// alive replicas (the caller saw ErrQuorumNotMet).
	QuorumFailures int64
	// ReadFallbacks counts reads served by an owner past the first alive
	// one tried (a down replica or double-read miss fell through).
	ReadFallbacks int64
	// ReadRepairs counts divergent replicas re-written by ReadRepair reads.
	ReadRepairs int64

	// MigratedKeys/MigratedBytes/MigrationOps account topology-change
	// streaming traffic (scans + copies), kept apart from client ops.
	MigratedKeys  int64
	MigratedBytes int64
	MigrationOps  int64
	// CleanupDeletes counts keys deleted off ex-owners at epoch commit.
	CleanupDeletes int64

	// Rebuilds counts completed device rebuilds; RebuiltKeys/RebuiltBytes
	// the data re-filled onto replacement hardware.
	Rebuilds     int64
	RebuiltKeys  int64
	RebuiltBytes int64

	// DeadMembers and RebuildingMembers are current lifecycle gauges;
	// RingMembers the committed ring size.
	DeadMembers       int
	RebuildingMembers int
	RingMembers       int
}

// MemberStats extends the per-shard row with lifecycle state.
type MemberStats struct {
	cluster.ShardStats
	State string
	Cause string // kill cause, dead members only
}

// Stats is the fleet's merged statistics view: the cluster-compatible
// rollup (dead members contribute their op counts but no device state — the
// hardware is gone), the replication counters, and per-member rows.
type Stats struct {
	cluster.Stats
	Repl    ReplStats
	Members []MemberStats
}

// CollectStats snapshots every member under its mutex, so it is safe
// concurrently with in-flight operations: a scraper observes each member
// between operations, never mid-flight.
func (f *Fleet) CollectStats() Stats {
	f.mu.Lock()
	members := f.members
	out := Stats{
		Stats: cluster.Stats{
			Shards:       len(members),
			ReadAccesses: stats.NewIntHist(8),
		},
		Repl: ReplStats{
			Factor:          f.repl.Factor,
			WriteQuorum:     f.repl.WriteQuorum,
			ReadMode:        f.repl.ReadMode.String(),
			Epoch:           f.epoch,
			MigrationActive: f.mig != nil,
			QuorumFailures:  f.quorumFailures,
			ReadFallbacks:   f.readFallbacks,
			ReadRepairs:     f.readRepairs,
			MigratedKeys:    f.migratedKeys,
			MigratedBytes:   f.migratedBytes,
			MigrationOps:    f.migrationOps,
			CleanupDeletes:  f.cleanupDels,
			Rebuilds:        f.rebuilds,
			RebuiltKeys:     f.rebuiltKeys,
			RebuiltBytes:    f.rebuiltBytes,
			RingMembers:     len(f.ringIDs),
		},
	}
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		ms := MemberStats{State: m.state.String()}
		ms.Shard = int(m.id)
		ms.Ops = m.ops
		ms.Now = m.eng.Now()
		if m.state == stateDead {
			ms.Cause = m.cause.String()
			out.Repl.DeadMembers++
		} else {
			if m.state == stateRebuilding {
				out.Repl.RebuildingMembers++
			}
			st := m.dev.Stats()
			var fc nand.Counters
			if st.Flash != nil {
				fc = st.Flash()
			}
			ms.LiveKeys = st.LiveKeys
			ms.LiveBytes = st.LiveBytes
			ms.Flash = fc
			ms.TreeCompactions = st.TreeCompactions
			ms.LogCompactions = st.LogCompactions
			ms.ChainedCompactions = st.ChainedCompactions
			ms.GCRuns = st.GCRuns
			ms.GCRelocations = st.GCRelocations
			ms.Store = device.FootprintOf(m.dev)
			ms.Cache = cluster.CacheStatsOf(m.dev)
			if st.ReadAccesses != nil {
				out.ReadAccesses.Merge(st.ReadAccesses)
			}
		}
		qw, sv := m.eng.Breakdown()
		m.mu.Unlock()
		out.Members = append(out.Members, ms)
		out.PerShard = append(out.PerShard, ms.ShardStats)
		out.Ops += ms.Ops
		if ms.Now > out.Now {
			out.Now = ms.Now
		}
		out.LiveKeys += ms.LiveKeys
		out.LiveBytes += ms.LiveBytes
		out.Flash = out.Flash.Add(ms.Flash)
		out.TreeCompactions += ms.TreeCompactions
		out.LogCompactions += ms.LogCompactions
		out.ChainedCompactions += ms.ChainedCompactions
		out.GCRuns += ms.GCRuns
		out.GCRelocations += ms.GCRelocations
		out.Store = out.Store.Add(ms.Store)
		if ms.Cache != nil {
			if out.Cache == nil {
				out.Cache = new(cache.Stats)
			}
			*out.Cache = out.Cache.Add(*ms.Cache)
		}
		out.QueueWait.Merge(&qw)
		out.Service.Merge(&sv)
	}
	return out
}

// Metadata merges live members' metadata reports, same-name same-placement
// structures summing their bytes.
func (f *Fleet) Metadata() []device.MetaStructure {
	type slot struct{ idx int }
	var out []device.MetaStructure
	index := map[string]slot{}
	f.mu.Lock()
	members := f.members
	f.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		if m.state == stateDead {
			m.mu.Unlock()
			continue
		}
		meta := m.dev.Metadata()
		m.mu.Unlock()
		for _, ms := range meta {
			key := ms.Name
			if !ms.InDRAM {
				key += "\x00flash"
			}
			if s, ok := index[key]; ok {
				out[s.idx].Bytes += ms.Bytes
			} else {
				index[key] = slot{len(out)}
				out = append(out, ms)
			}
		}
	}
	return out
}
