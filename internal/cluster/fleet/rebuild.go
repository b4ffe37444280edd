package fleet

import (
	"errors"
	"fmt"

	"anykey/internal/cluster"
	"anykey/internal/device"
	"anykey/internal/host"
	"anykey/internal/kv"
)

// KillShard kills a member's device mid-traffic: a power cut or grown-bad
// exhaustion (the two terminal causes internal/fault injects) after which
// the hardware's contents are unavailable. The member's in-flight work is
// simply gone — acknowledged writes survive only where replicas hold them.
// Reads fall through to surviving owners; writes keep acking as long as
// WriteQuorum alive owners remain.
func (f *Fleet) KillShard(id int, cause KillCause) error {
	m, err := f.memberByID(int32(id))
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.state {
	case stateDead:
		return fmt.Errorf("fleet: member %d already dead", id)
	case stateRetired:
		return fmt.Errorf("fleet: member %d is retired", id)
	}
	m.state = stateDead
	m.cause = cause
	// The hardware's contents are unreachable from this instant, so free the
	// payload store eagerly — a long-lived fleet must not retain dead shards'
	// pages. Every fleet path checks the member state under this same mutex
	// before touching the device, so nothing reads it after the kill; a
	// rebuild replaces the device outright.
	device.ReleaseMemory(m.dev)
	return nil
}

// Rebuild is an in-flight device rebuild: replacement hardware under the
// dead member's identity, re-filled from the surviving replicas' scans.
// The ring is untouched — the member ID keeps its vnodes — so a rebuild
// moves no ownership; it only restores the replica the kill destroyed.
//
// While rebuilding, the member takes new writes — so the refill cannot
// lose fresh traffic — but serves no reads and counts toward no write
// quorum until Step drains and the member returns to alive. The refill is
// put-if-absent: under the member mutex it checks the replacement for the
// key and copies only on a miss, so a replica version written by a client
// during the rebuild is never clobbered by an older scanned copy.
type Rebuild struct {
	f       *Fleet
	subject int32

	sources []int32
	srcIdx  int
	next    []byte

	keys  int64
	bytes int64
	done  bool
}

// Subject returns the member being rebuilt.
func (r *Rebuild) Subject() int32 { return r.subject }

// Done reports whether the rebuild has completed.
func (r *Rebuild) Done() bool {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return r.done
}

// Progress reports sources drained vs total, plus keys copied so far.
func (r *Rebuild) Progress() (drained, total int, keys int64) {
	r.f.mu.Lock()
	defer r.f.mu.Unlock()
	return r.srcIdx, len(r.sources), r.keys
}

// RebuildShard replaces a dead member's hardware (Config.NewDevice, same
// member ID, clock starting at the merged fleet time) and returns the
// steppable refill. Surviving replicas keep serving reads throughout; the
// member rejoins the read path and the quorum only when the refill drains.
func (f *Fleet) RebuildShard(id int) (*Rebuild, error) {
	m, err := f.memberByID(int32(id))
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.mig != nil {
		f.mu.Unlock()
		return nil, ErrMigrationInProgress
	}
	f.mu.Unlock()

	m.mu.Lock()
	if m.state != stateDead {
		st := m.state
		m.mu.Unlock()
		return nil, fmt.Errorf("fleet: member %d is %s, not dead", id, st)
	}
	m.mu.Unlock()

	dev, tr, err := f.newDev(id)
	if err != nil {
		return nil, fmt.Errorf("fleet: rebuild device: %w", err)
	}
	eng, err := host.NewAt(dev, f.qd, f.Now())
	if err != nil {
		return nil, fmt.Errorf("fleet: rebuild engine: %w", err)
	}

	m.mu.Lock()
	if m.state != stateDead {
		m.mu.Unlock()
		return nil, fmt.Errorf("fleet: member %d revived concurrently", id)
	}
	m.dev = dev
	m.eng = eng
	if tr != nil {
		m.tr = tr
		eng.SetTracer(tr)
	}
	m.state = stateRebuilding
	m.mu.Unlock()

	f.mu.Lock()
	defer f.mu.Unlock()
	return &Rebuild{
		f:       f,
		subject: int32(id),
		sources: f.aliveOfLocked(f.ringIDs),
	}, nil
}

// Step streams up to maxKeys keys (≤ 0 means one scan chunk) onto the
// replacement device. Every alive ring member is scanned; a key is copied
// only when the rebuilding member is in its owner walk AND the scanning
// member is the key's first alive owner — one coordinator per key, so the
// surviving replicas dedupe deterministically. Returns true once the
// member is alive again. Safe to interleave with client traffic.
func (r *Rebuild) Step(maxKeys int) (bool, error) {
	f := r.f
	if maxKeys <= 0 {
		maxKeys = f.chunk
	}
	f.mu.Lock()
	if r.done {
		f.mu.Unlock()
		return true, nil
	}
	f.mu.Unlock()

	processed := 0
	for processed < maxKeys {
		f.mu.Lock()
		if r.srcIdx >= len(r.sources) {
			r.commitLocked()
			f.mu.Unlock()
			return true, nil
		}
		src := r.sources[r.srcIdx]
		start := r.next
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
			f.mu.Lock()
			r.srcIdx++
			r.next = nil
			f.mu.Unlock()
			continue
		}
		if err != nil {
			return false, fmt.Errorf("fleet: rebuild scan on member %d: %w", src, err)
		}
		f.mu.Lock()
		f.migrationOps++
		if len(pairs) == 0 {
			r.srcIdx++
			r.next = nil
			f.mu.Unlock()
			continue
		}
		last := pairs[len(pairs)-1].key
		r.next = append(append([]byte(nil), last...), 0)
		f.mu.Unlock()

		for _, p := range pairs {
			copied, err := r.rebuildKey(src, p)
			if err != nil {
				return false, err
			}
			if copied {
				processed++
			}
		}
	}
	return false, nil
}

// Run steps the rebuild to completion.
func (r *Rebuild) Run() error {
	for {
		done, err := r.Step(0)
		if err != nil || done {
			return err
		}
	}
}

// rebuildKey copies one scanned pair onto the rebuilding member when (a)
// that member owns the key under the committed ring and (b) src is the
// key's first alive owner.
func (r *Rebuild) rebuildKey(src int32, p pairCopy) (bool, error) {
	f := r.f
	h := cluster.HashKey(p.key)

	f.mu.Lock()
	owners := f.routeLocked(nil, h)
	members := f.members
	f.mu.Unlock()
	if !containsID(owners, r.subject) {
		return false, nil
	}
	coord := int32(-1)
	for _, id := range owners {
		mm := members[id]
		mm.mu.Lock()
		alive := mm.state == stateAlive
		mm.mu.Unlock()
		if alive {
			coord = id
			break
		}
	}
	if coord != src {
		return false, nil
	}

	m := members[r.subject]
	m.mu.Lock()
	if m.state != stateRebuilding {
		m.mu.Unlock()
		return false, nil
	}
	// Put-if-absent: a client write that already reached the replacement is
	// newer than anything a survivor scan can carry.
	if _, gerr := m.eng.Get(p.key); gerr == nil {
		m.mu.Unlock()
		return false, nil
	} else if !errors.Is(gerr, kv.ErrNotFound) {
		m.mu.Unlock()
		return false, fmt.Errorf("fleet: rebuild probe %q on member %d: %w", p.key, r.subject, gerr)
	}
	_, err := m.eng.Put(p.key, p.value)
	m.mu.Unlock()
	if err != nil {
		return false, fmt.Errorf("fleet: rebuilding %q onto member %d: %w", p.key, r.subject, err)
	}
	f.mu.Lock()
	f.migrationOps++
	r.keys++
	r.bytes += int64(len(p.key) + len(p.value))
	f.mu.Unlock()
	return true, nil
}

// commitLocked returns the member to alive and books the rebuild counters.
// Caller holds f.mu.
func (r *Rebuild) commitLocked() {
	f := r.f
	m := f.members[r.subject]
	m.mu.Lock()
	if m.state == stateRebuilding {
		m.state = stateAlive
	}
	m.mu.Unlock()
	f.rebuilds++
	f.rebuiltKeys += r.keys
	f.rebuiltBytes += r.bytes
	r.done = true
}
