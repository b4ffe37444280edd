// Open-loop execution: requests arrive on the workload's arrival clock
// (workload.Arrivals) whether or not the device keeps up, the client times
// out attempts that miss its deadline and re-submits them with capped
// exponential backoff, and the run is scored by SLO goodput instead of raw
// throughput. This is the overload methodology: a closed loop throttles
// itself by construction, so only this path can show goodput collapse and
// metastable failure (retry amplification keeping a device saturated after
// the offered load drops).
//
// One event loop (runOpenLoop) drives every open-loop run: the
// single-device engine via its *At submission path, and the cluster — at
// every replication factor, with or without a fleet scenario — via
// per-replica *At submission. The openTarget interface hides the
// difference; openHooks carries a fleet scenario's events and durability
// oracle. All times inside the loop are relative to the execution epoch —
// each target adds its own clock-domain offset, which for a cluster is per
// member (member clocks are independent, so every replica receives the
// arrival in its own domain and a completion is measured against the
// epoch of the member that produced it).
package harness

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"

	"anykey"
	"anykey/internal/stats"
	"anykey/internal/trace"
	"anykey/internal/workload"
)

// OpenStats is the open-loop client's scorecard for one run.
type OpenStats struct {
	// Arrival echoes the offered process; Timeout and SLO the effective
	// client knobs (after defaults), so reports are self-describing.
	Arrival workload.ArrivalSpec
	Timeout anykey.Duration
	SLO     anykey.Duration

	Offered  int64 // fresh arrivals generated within the horizon
	Attempts int64 // device submissions, retries included
	Timeouts int64 // attempts that missed the client deadline
	Retries  int64 // re-submissions scheduled after timeouts
	Dropped  int64 // operations abandoned after the retry budget

	// Completed counts operations whose final attempt met the deadline;
	// GoodOps those that also met the end-to-end SLO (first arrival to
	// final completion). Goodput is GoodOps per simulated second of the
	// whole execution phase, drain included — under overload the drain
	// stretches and goodput collapses, which is the knee the storm
	// experiment sweeps for.
	Completed int64
	GoodOps   int64
	Goodput   float64

	// RecoverTime is how long the system needed to go idle after the last
	// fresh arrival: final completion time minus the end of the offered
	// stream. Post-burst recovery debt (GC, compaction, retry backlog)
	// shows up here.
	RecoverTime anykey.Duration
}

// openDone is one attempt's outcome in epoch-relative time.
type openDone struct {
	// failed marks an attempt the target rejected outright: a write that
	// missed its quorum, or a read with no readable owner. The loop retries
	// it without counting a timeout; doneRel is meaningless.
	failed  bool
	doneRel anykey.Time
	value   []byte
	pairs   int
	// tracer and epoch let the loop annotate the attempt's op record with
	// retry/timeout events in the target's absolute clock domain.
	tracer *anykey.Tracer
	epoch  anykey.Time
}

// openTarget submits one attempt arriving at rel (relative to the
// execution epoch) and returns its completion.
type openTarget interface {
	submit(rel anykey.Time, op workload.Op) (openDone, error)
}

// deviceTarget drives a single-device engine's *At path.
type deviceTarget struct {
	eng   *anykey.Engine
	tr    *anykey.Tracer
	epoch anykey.Time
}

func (t *deviceTarget) submit(rel anykey.Time, op workload.Op) (openDone, error) {
	at := t.epoch.Add(anykey.Duration(rel))
	var (
		comp anykey.Completion
		err  error
	)
	switch op.Kind {
	case workload.OpPut:
		comp, err = t.eng.PutAt(at, op.Key, op.Value)
	case workload.OpScan:
		comp, err = t.eng.ScanAt(at, op.Key, op.ScanLen)
	default:
		comp, err = t.eng.GetAt(at, op.Key)
	}
	if err != nil {
		return openDone{}, err
	}
	return openDone{
		doneRel: anykey.Time(comp.Done.Sub(t.epoch)),
		value:   comp.Value,
		pairs:   len(comp.Pairs),
		tracer:  t.tr,
		epoch:   t.epoch,
	}, nil
}

// openHooks is what a run plugs into the loop: the histograms completed
// operations' end-to-end latencies land in (scan may be nil for cluster
// runs), and two optional scenario hooks.
type openHooks struct {
	read, write, scan *stats.Histogram

	// before runs ahead of each attempt at its epoch-relative arrival
	// instant: a fleet scenario fires its kill/rebuild/add-shard events and
	// steps its background streams here.
	before func(now anykey.Time) error

	// completed sees every operation whose final attempt met the deadline,
	// with its end-to-end latency (first arrival to final completion).
	completed func(cur pendingOp, e2e anykey.Duration)
}

// pendingOp is an operation in flight through the loop: a fresh arrival,
// or a timed-out or failed one waiting to re-enter the arrival stream.
type pendingOp struct {
	at       anykey.Time // epoch-relative re-arrival time
	seq      int64       // fresh-arrival index, the deterministic tie-break
	attempt  int         // attempts already spent (≥ 1)
	firstRel anykey.Time // original arrival, for end-to-end latency
	op       workload.Op
}

// retryHeap orders pending retries by (time, seq). Fresh arrivals always
// carry a larger seq than any pending retry, so at equal instants retries
// re-enter the stream first — a fixed, documented rule that keeps the
// event order deterministic.
type retryHeap []pendingOp

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h retryHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)     { *h = append(*h, x.(pendingOp)) }
func (h *retryHeap) Pop() any       { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h retryHeap) peek() pendingOp { return h[0] }

// arrivalSeedOffset decouples the arrival clock's PRNG from the op-mix
// PRNG: both derive from BaseConfig.Seed, but an open-loop run must draw
// the exact key/op sequence a closed-loop run with the same seed draws.
const arrivalSeedOffset = 0x9E3779B9

// runOpenLoop drives the open-loop execution phase against a target. All
// bookkeeping is in epoch-relative virtual time; the caller computes
// Goodput once it knows the phase's total simulated seconds. It also
// returns the taint set: keys whose version ordering the retry protocol
// broke (a timed-out or failed put).
func runOpenLoop(cfg *BaseConfig, gen *workload.Generator, tgt openTarget, h openHooks, verified *int64) (*OpenStats, map[uint64]struct{}, error) {
	arr, err := workload.NewArrivals(cfg.Workload.Arrival, cfg.Seed+arrivalSeedOffset)
	if err != nil {
		return nil, nil, err
	}
	st := &OpenStats{Arrival: cfg.Workload.Arrival, Timeout: cfg.Timeout, SLO: cfg.SLO}
	horizon := anykey.Time(cfg.Horizon)

	var (
		pending      retryHeap
		nextFresh    = arr.Next()
		freshDone    = nextFresh > horizon
		lastFreshRel anykey.Time
		lastDoneRel  anykey.Time
		// tainted marks keys whose ordering the retry protocol has broken: a
		// timed-out put's attempts re-execute after later fresh puts to the
		// same key, and a failed put may still have landed on some replicas,
		// so the device may legitimately hold an older version than the
		// generator expects. Reads of such keys skip payload verification.
		tainted = map[uint64]struct{}{}
	)
	// requeue schedules cur's next attempt after the timeout plus backoff,
	// or drops it once the retry budget is spent.
	requeue := func(cur pendingOp) (pendingOp, bool) {
		if cur.attempt >= cfg.Retry.MaxRetries {
			st.Dropped++
			return cur, false
		}
		retry := cur
		retry.attempt++
		retry.at = cur.at.Add(cfg.Timeout + cfg.Retry.delay(retry.attempt))
		st.Retries++
		heap.Push(&pending, retry)
		return retry, true
	}
	for {
		if freshDone || (cfg.MaxOps > 0 && st.Offered >= cfg.MaxOps) {
			freshDone = true
			if len(pending) == 0 {
				break
			}
		}
		// Pick the next event: the earliest of the retry queue and the
		// fresh stream; ties go to the retry (its seq is always smaller).
		var cur pendingOp
		if len(pending) > 0 && (freshDone || pending.peek().at <= nextFresh) {
			cur = heap.Pop(&pending).(pendingOp)
		} else {
			cur = pendingOp{at: nextFresh, seq: st.Offered, firstRel: nextFresh, op: gen.Next()}
			st.Offered++
			lastFreshRel = nextFresh
			if nextFresh = arr.Next(); nextFresh > horizon {
				freshDone = true
			}
		}
		if h.before != nil {
			if err := h.before(cur.at); err != nil {
				return nil, nil, err
			}
		}

		done, err := tgt.submit(cur.at, cur.op)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: open-loop %v: %w", cur.op.Kind, err)
		}
		st.Attempts++
		if done.failed {
			// Rejected outright: no deadline was missed, but the operation
			// still needs another attempt.
			if cur.op.Kind == workload.OpPut {
				tainted[cur.op.ID] = struct{}{}
			}
			requeue(cur)
			continue
		}
		if done.doneRel > lastDoneRel {
			lastDoneRel = done.doneRel
		}
		seq := done.tracer.LastOpSeq()
		if cur.attempt > 0 {
			done.tracer.MarkAttempt(seq, int32(cur.attempt))
		}

		if lat := done.doneRel.Sub(cur.at); lat > cfg.Timeout {
			// Client deadline missed. The device still did the work — the
			// client cannot cancel an in-flight request, which is exactly
			// how retries amplify load under overload.
			st.Timeouts++
			if cur.op.Kind == workload.OpPut {
				tainted[cur.op.ID] = struct{}{}
			}
			deadline := done.epoch.Add(anykey.Duration(cur.at) + cfg.Timeout)
			done.tracer.OpSpan(trace.BGTrack(trace.CauseTimeout), trace.EvTimeout,
				trace.CauseTimeout, seq, deadline, deadline,
				done.epoch.Add(anykey.Duration(done.doneRel)), int64(cur.attempt))
			if retry, ok := requeue(cur); ok {
				at := done.epoch.Add(anykey.Duration(retry.at))
				done.tracer.OpSpan(trace.BGTrack(trace.CauseRetry), trace.EvRetry,
					trace.CauseRetry, seq, at, at, at, int64(retry.attempt))
			}
			continue
		}

		// Completed within the deadline: score end-to-end from the first
		// arrival, so retry delay counts against the SLO.
		st.Completed++
		e2e := done.doneRel.Sub(cur.firstRel)
		if e2e <= cfg.SLO {
			st.GoodOps++
		}
		switch cur.op.Kind {
		case workload.OpPut:
			h.write.Record(e2e)
		case workload.OpScan:
			h.scan.Record(e2e)
			if !cfg.NoVerify && done.pairs == 0 {
				return nil, nil, errors.New("harness: open-loop scan returned nothing on a loaded device")
			}
		default:
			h.read.Record(e2e)
			// Verify fresh reads of cleanly-ordered keys only: by a
			// retry's re-arrival the generator may have advanced the key's
			// version through later fresh writes, and a tainted key may
			// hold an older version than expected. During a fleet scenario
			// this is what checks double-reads under migration and replica
			// fallback during an outage.
			if !cfg.NoVerify && cur.attempt == 0 {
				if _, ok := tainted[cur.op.ID]; !ok {
					if !bytes.Equal(done.value, gen.ExpectedValue(cur.op.ID)) {
						return nil, nil, fmt.Errorf("harness: open-loop read of id %d returned wrong payload", cur.op.ID)
					}
					*verified++
				}
			}
		}
		if h.completed != nil {
			h.completed(cur, e2e)
		}
	}

	if d := lastDoneRel.Sub(lastFreshRel); d > 0 {
		st.RecoverTime = d
	}
	return st, tainted, nil
}
