package fleet

import (
	"errors"
	"fmt"

	"anykey/internal/cluster"
	"anykey/internal/host"
	"anykey/internal/kv"
)

// Migration is an in-flight topology change. The ring swaps to the new
// topology the moment the change starts — so fresh writes land on the new
// owners immediately — while the old ring is kept for double-reads (a read
// missing on the new owners falls through to the old) and to route the
// writes that must cover both owner sets until commit. Step streams the
// affected keys from the old owners' scans; Commit fires automatically when
// the stream drains: it drops the old ring, bumps the migration epoch, and
// deletes the moved keys off their ex-owners.
//
// Keys first written during the migration are not in the cleanup stream; a
// copy may linger on an ex-owner. That copy is unreachable — reads walk the
// committed ring only after commit — and is reclaimed by the device's own
// GC like any dead version.
type Migration struct {
	f       *Fleet
	oldRing cluster.Ring
	oldIDs  []int32
	kind    string // "add" or "remove"
	subject int32  // the member added or removed

	// Streaming cursor: source members (old-ring members alive at start),
	// the index being scanned, and the next start key on it.
	sources []int32
	srcIdx  int
	next    []byte

	// cleanup collects (ex-owner, key) pairs for the commit-time deletes.
	cleanup []cleanupDel

	done bool
}

type cleanupDel struct {
	member int32
	key    []byte
}

// Kind reports "add" or "remove"; Subject the member being added/removed.
func (g *Migration) Kind() string   { return g.kind }
func (g *Migration) Subject() int32 { return g.subject }

// Done reports whether the migration has committed.
func (g *Migration) Done() bool {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return g.done
}

// Progress reports the source-scan position: sources drained vs total.
func (g *Migration) Progress() (drained, total int) {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return g.srcIdx, len(g.sources)
}

// errModuloTopology rejects topology changes under RouteModulo, where a new
// member count would re-route almost every key.
var errModuloTopology = errors.New("fleet: topology change under modulo routing")

// AddShard brings a fresh member (built by Config.NewDevice) into the ring
// and starts streaming the ~1/N key fraction the new topology assigns it.
// The returned Migration must be stepped to completion (Step, or Run).
func (f *Fleet) AddShard() (*Migration, error) {
	if f.policy == cluster.RouteModulo {
		return nil, errModuloTopology
	}
	f.mu.Lock()
	if f.mig != nil {
		f.mu.Unlock()
		return nil, ErrMigrationInProgress
	}
	id := int32(len(f.members))
	f.mu.Unlock()

	dev, tr, err := f.newDev(int(id))
	if err != nil {
		return nil, fmt.Errorf("fleet: addshard device: %w", err)
	}
	// The new member's clock starts at the merged fleet time: hardware
	// plugged in "now", not at virtual zero.
	eng, err := host.NewAt(dev, f.qd, f.Now())
	if err != nil {
		return nil, fmt.Errorf("fleet: addshard engine: %w", err)
	}
	m := &member{id: id, dev: dev, eng: eng, tr: tr}
	if tr != nil {
		eng.SetTracer(tr)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mig != nil {
		return nil, ErrMigrationInProgress
	}
	f.members = append(f.members, m)
	oldRing, oldIDs := f.ring, f.ringIDs
	f.ringIDs = append(append([]int32(nil), oldIDs...), id)
	f.ring = cluster.BuildRing(f.ringIDs, f.vnodes)
	f.mig = &Migration{
		f:       f,
		oldRing: oldRing,
		oldIDs:  oldIDs,
		kind:    "add",
		subject: id,
		sources: f.aliveOfLocked(oldIDs),
	}
	return f.mig, nil
}

// RemoveShard takes a member out of the ring, streaming its keys to their
// new owners before the member retires at commit. The member keeps serving
// double-reads (and takes union writes) until then.
func (f *Fleet) RemoveShard(id int) (*Migration, error) {
	if f.policy == cluster.RouteModulo {
		return nil, errModuloTopology
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mig != nil {
		return nil, ErrMigrationInProgress
	}
	if !containsID(f.ringIDs, int32(id)) {
		return nil, fmt.Errorf("fleet: member %d not in ring", id)
	}
	if len(f.ringIDs)-1 < f.repl.Factor {
		return nil, fmt.Errorf("fleet: removing member %d leaves %d members for replication factor %d",
			id, len(f.ringIDs)-1, f.repl.Factor)
	}
	oldRing, oldIDs := f.ring, f.ringIDs
	keep := make([]int32, 0, len(oldIDs)-1)
	for _, v := range oldIDs {
		if v != int32(id) {
			keep = append(keep, v)
		}
	}
	f.ringIDs = keep
	f.ring = cluster.BuildRing(keep, f.vnodes)
	f.mig = &Migration{
		f:       f,
		oldRing: oldRing,
		oldIDs:  oldIDs,
		kind:    "remove",
		subject: int32(id),
		sources: f.aliveOfLocked(oldIDs),
	}
	return f.mig, nil
}

// aliveOfLocked filters ids down to alive members. Callers hold f.mu.
func (f *Fleet) aliveOfLocked(ids []int32) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		m := f.members[id]
		m.mu.Lock()
		if m.state == stateAlive {
			out = append(out, id)
		}
		m.mu.Unlock()
	}
	return out
}

// Step streams up to maxKeys source keys (≤ 0 means one scan chunk),
// copying each to its new owners. A key is processed only by its first
// ALIVE old-ring owner — every key has exactly one coordinator, so the R
// replica copies dedupe deterministically. Returns true once the migration
// committed. Safe to interleave with client traffic: the ring already
// routes writes to the union of owner sets, and reads double-read through
// the fallback walk.
func (g *Migration) Step(maxKeys int) (bool, error) {
	f := g.f
	if maxKeys <= 0 {
		maxKeys = f.chunk
	}
	f.mu.Lock()
	if g.done {
		f.mu.Unlock()
		return true, nil
	}
	f.mu.Unlock()

	processed := 0
	for processed < maxKeys {
		f.mu.Lock()
		if g.srcIdx >= len(g.sources) {
			err := g.commitLocked()
			f.mu.Unlock()
			return true, err
		}
		src := g.sources[g.srcIdx]
		start := g.next
		f.mu.Unlock()

		m := f.member(src)
		m.mu.Lock()
		skip := m.state != stateAlive
		var pairs []pairCopy
		var err error
		if !skip {
			var comp host.Completion
			comp, err = m.eng.Scan(start, f.chunk)
			if err == nil {
				pairs = copyPairs(comp.Pairs)
			}
		}
		m.mu.Unlock()
		if skip {
			// Source died mid-stream; its replicas carry the same keys and
			// coordinate them when their own scans reach them.
			f.mu.Lock()
			g.srcIdx++
			g.next = nil
			f.mu.Unlock()
			continue
		}
		if err != nil {
			return false, fmt.Errorf("fleet: migration scan on member %d: %w", src, err)
		}
		f.mu.Lock()
		f.migrationOps++
		if len(pairs) == 0 {
			g.srcIdx++
			g.next = nil
			f.mu.Unlock()
			continue
		}
		last := pairs[len(pairs)-1].key
		g.next = append(append([]byte(nil), last...), 0)
		f.mu.Unlock()

		for _, p := range pairs {
			moved, err := g.migrateKey(src, p)
			if err != nil {
				return false, err
			}
			if moved {
				processed++
			}
		}
	}
	return false, nil
}

// Run steps the migration to completion.
func (g *Migration) Run() error {
	for {
		done, err := g.Step(0)
		if err != nil || done {
			return err
		}
	}
}

type pairCopy struct{ key, value []byte }

// copyPairs snapshots scan results out of device-owned buffers: migration
// touches other members between scans, which would invalidate them.
func copyPairs(pairs []kv.Pair) []pairCopy {
	out := make([]pairCopy, len(pairs))
	for i, p := range pairs {
		out[i] = pairCopy{
			key:   append([]byte(nil), p.Key...),
			value: append([]byte(nil), p.Value...),
		}
	}
	return out
}

// migrateKey applies the coordinator rule to one scanned pair and, when src
// is the key's coordinator, copies it to the owners the new topology added
// and records the ex-owners for commit-time cleanup. Reports whether this
// call moved the key.
func (g *Migration) migrateKey(src int32, p pairCopy) (bool, error) {
	f := g.f
	h := cluster.HashKey(p.key)

	f.mu.Lock()
	oldOwners := g.oldRing.OwnersHash(nil, h, f.repl.Factor)
	// The coordinator is the key's first alive old-ring owner.
	coord := int32(-1)
	for _, id := range oldOwners {
		mm := f.members[id]
		mm.mu.Lock()
		alive := mm.state == stateAlive
		mm.mu.Unlock()
		if alive {
			coord = id
			break
		}
	}
	newOwners := f.ring.OwnersHash(nil, h, f.repl.Factor)
	members := f.members
	f.mu.Unlock()

	if coord != src {
		return false, nil
	}
	moved := false
	for _, id := range newOwners {
		if containsID(oldOwners, id) {
			continue
		}
		m := members[id]
		m.mu.Lock()
		st := m.state
		var err error
		if st == stateAlive || st == stateRebuilding {
			_, err = m.eng.Put(p.key, p.value)
		}
		m.mu.Unlock()
		if err != nil {
			return false, fmt.Errorf("fleet: migrating %q to member %d: %w", p.key, id, err)
		}
		moved = true
		f.mu.Lock()
		f.migrationOps++
		f.migratedBytes += int64(len(p.key) + len(p.value))
		f.mu.Unlock()
	}
	if moved {
		f.mu.Lock()
		f.migratedKeys++
		for _, id := range oldOwners {
			if !containsID(newOwners, id) {
				g.cleanup = append(g.cleanup, cleanupDel{member: id, key: p.key})
			}
		}
		f.mu.Unlock()
	}
	return moved, nil
}

// commitLocked finishes the migration: epoch++, cleanup deletes off
// ex-owners, old ring dropped, removed member retired. Caller holds f.mu.
func (f *Fleet) commitLockedOn(g *Migration) error {
	for _, cd := range g.cleanup {
		m := f.members[cd.member]
		m.mu.Lock()
		if m.state == stateAlive {
			if _, err := m.eng.Delete(cd.key); err == nil {
				f.cleanupDels++
				f.migrationOps++
			}
		}
		m.mu.Unlock()
	}
	g.cleanup = nil
	if g.kind == "remove" {
		m := f.members[g.subject]
		m.mu.Lock()
		if m.state == stateAlive || m.state == stateRebuilding {
			m.state = stateRetired
		}
		m.mu.Unlock()
	}
	f.epoch++
	f.mig = nil
	g.done = true
	return nil
}

func (g *Migration) commitLocked() error { return g.f.commitLockedOn(g) }

// MigrationStatus describes the in-flight topology change, if any.
type MigrationStatus struct {
	Active       bool
	Kind         string
	Subject      int32
	SourcesDone  int
	SourcesTotal int
	Epoch        int64
}

// Migrating returns the current migration status.
func (f *Fleet) Migrating() MigrationStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := MigrationStatus{Epoch: f.epoch}
	if f.mig != nil {
		st.Active = true
		st.Kind = f.mig.kind
		st.Subject = f.mig.subject
		st.SourcesDone = f.mig.srcIdx
		st.SourcesTotal = len(f.mig.sources)
	}
	return st
}
