package anykey

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestTxnSentinelRoundTrips drives every transaction error path through the
// public API and checks the sentinels with errors.Is, both directions.
func TestTxnSentinelRoundTrips(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// CAS mismatch → ErrTxnConflict, and only that sentinel.
	if _, err := c.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	_, err = c.CompareAndSwap([]byte("k"), []byte("wrong"), []byte("v2"))
	if !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("CAS mismatch: want ErrTxnConflict, got %v", err)
	}
	if errors.Is(err, ErrTxnAborted) {
		t.Fatalf("CAS mismatch must not match ErrTxnAborted: %v", err)
	}

	// Retry exhaustion → error matches BOTH ErrTxnAborted and ErrTxnConflict.
	// The body conflicts deliberately: between its read and its commit, a
	// nested transaction rewrites the read key (bumping its OCC version), so
	// validation fails on every attempt.
	_, err = c.Txn(func(tx *Tx) error {
		if _, err := tx.Get([]byte("k")); err != nil {
			return err
		}
		if _, err := c.Txn(func(tx2 *Tx) error {
			tx2.Put([]byte("k"), []byte("dirty"))
			return nil
		}); err != nil {
			return err
		}
		tx.Put([]byte("k"), []byte("mine"))
		return nil
	})
	if !errors.Is(err, ErrTxnAborted) || !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("exhausted retries: want ErrTxnAborted and ErrTxnConflict, got %v", err)
	}

	// Body errors propagate unwrapped and unretried.
	sentinel := errors.New("body says no")
	if _, err := c.Txn(func(tx *Tx) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("body error: want %v, got %v", sentinel, err)
	}
}

func TestAtomicUnsupportedGate(t *testing.T) {
	opts := smallClusterOpts()
	opts.Replication = ReplicationOptions{Factor: 2, WriteQuorum: 1}
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.AtomicMultiPut([][]byte{[]byte("a"), []byte("b")}, [][]byte{[]byte("1"), []byte("2")})
	if !errors.Is(err, ErrAtomicUnsupported) {
		t.Fatalf("R=2 W=1 ReadOne: want ErrAtomicUnsupported, got %v", err)
	}

	// OCC transactions take the same 2PC path for multi-key commits, so the
	// gate must reject them too — up front, not at commit.
	if _, err := c.BeginTxn(); !errors.Is(err, ErrAtomicUnsupported) {
		t.Fatalf("BeginTxn under R=2 W=1: want ErrAtomicUnsupported, got %v", err)
	}
	ran := false
	_, err = c.Txn(func(tx *Tx) error { ran = true; return nil })
	if !errors.Is(err, ErrAtomicUnsupported) {
		t.Fatalf("Txn under R=2 W=1: want ErrAtomicUnsupported, got %v", err)
	}
	if ran {
		t.Fatal("Txn body ran despite the gate")
	}

	// Full write quorum makes the commit record decisive: allowed.
	opts2 := smallClusterOpts()
	opts2.Replication = ReplicationOptions{Factor: 2, WriteQuorum: 2}
	c2, err := OpenCluster(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.AtomicMultiPut([][]byte{[]byte("a"), []byte("b")}, [][]byte{[]byte("1"), []byte("2")})
	if err != nil {
		t.Fatalf("R=2 W=2: atomic batch failed: %v", err)
	}
	if !res.Atomic || res.TxnID == 0 {
		t.Fatalf("batch not marked atomic: %+v", res)
	}
	if v, _, err := c2.Get([]byte("b")); err != nil || string(v) != "2" {
		t.Fatalf("Get b after atomic put: %q, %v", v, err)
	}
}

// TestRawWriteInvalidatesReads: a raw (non-transactional) write routed
// through RawWrite bumps the OCC versions, so an open transaction that read
// the key before the write conflicts instead of committing a stale
// derivation over it.
func TestRawWriteInvalidatesReads(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Put([]byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	tx, err := c.BeginTxn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Get([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := c.RawWrite([][]byte{[]byte("k")}, func() error {
		_, err := c.Put([]byte("k"), []byte("raw"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx.Put([]byte("k"), []byte("stale"))
	if err := tx.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("commit after raw write = %v; want ErrTxnConflict", err)
	}
	if v, _, err := c.Get([]byte("k")); err != nil || string(v) != "raw" {
		t.Fatalf("k = %q, %v; want raw", v, err)
	}
}

// TestTxnInDoubtSentinel pins the contract that an in-doubt commit is not an
// abort: code switching on ErrTxnAborted to mean "nothing survived" must not
// match an undecided batch.
func TestTxnInDoubtSentinel(t *testing.T) {
	if errors.Is(ErrTxnInDoubt, ErrTxnAborted) {
		t.Fatal("ErrTxnInDoubt must not match ErrTxnAborted")
	}
	if errors.Is(ErrTxnAborted, ErrTxnInDoubt) {
		t.Fatal("ErrTxnAborted must not match ErrTxnInDoubt")
	}
}

func TestTxnOptionsValidation(t *testing.T) {
	opts := smallClusterOpts()
	opts.Txn.MaxRetries = -1
	if _, err := OpenCluster(opts); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("negative MaxRetries: want ErrInvalidOptions, got %v", err)
	}
}

func TestClusterIncrAppendCAS(t *testing.T) {
	c, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for want := int64(1); want <= 3; want++ {
		got, lat, err := c.Incr([]byte("ctr"), 1)
		if err != nil || got != want {
			t.Fatalf("Incr #%d: got %d, %v", want, got, err)
		}
		if lat < 0 {
			t.Fatalf("negative latency %v", lat)
		}
	}
	if _, err := c.Append([]byte("log"), []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append([]byte("log"), []byte("cd")); err != nil {
		t.Fatal(err)
	}
	if v, _, err := c.Get([]byte("log")); err != nil || string(v) != "abcd" {
		t.Fatalf("log = %q, %v", v, err)
	}
	if _, err := c.CompareAndSwap([]byte("cas"), nil, []byte("init")); err != nil {
		t.Fatalf("CAS expect-absent: %v", err)
	}
	if _, err := c.CompareAndSwap([]byte("cas"), []byte("init"), []byte("next")); err != nil {
		t.Fatalf("CAS swap: %v", err)
	}
	if v, _, err := c.Get([]byte("cas")); err != nil || string(v) != "next" {
		t.Fatalf("cas = %q, %v", v, err)
	}
	st := c.TxnStats()
	if st.Commits == 0 {
		t.Fatalf("no commits recorded: %+v", st)
	}
}

// TestAtomicBatchSurvivesKillShard commits atomic batches against a
// replicated fleet, kills a member, recovers, and checks the atomicity
// oracle: every batch is either fully visible or fully absent.
func TestAtomicBatchSurvivesKillShard(t *testing.T) {
	opts := smallClusterOpts()
	opts.Replication = ReplicationOptions{Factor: 2, WriteQuorum: 2}
	c, err := OpenCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := func(round int) ([][]byte, [][]byte) {
		keys := make([][]byte, 4)
		vals := make([][]byte, 4)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("b%02d-%d", round, i))
			vals[i] = []byte(fmt.Sprintf("v%02d-%d", round, i))
		}
		return keys, vals
	}

	committed := 0
	for round := 0; round < 6; round++ {
		if round == 3 {
			if err := c.KillShard(1, KillPowerCut); err != nil {
				t.Fatal(err)
			}
		}
		keys, vals := batch(round)
		if _, err := c.AtomicMultiPut(keys, vals); err != nil {
			// With a dead member some batches may miss quorum — allowed, as
			// long as the oracle below holds.
			continue
		}
		committed++
	}
	if committed == 0 {
		t.Fatal("no batch committed")
	}
	if _, _, err := c.RecoverTxns(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		keys, vals := batch(round)
		visible := 0
		for i, k := range keys {
			v, _, err := c.Get(k)
			if err == nil && bytes.Equal(v, vals[i]) {
				visible++
			}
		}
		if visible != 0 && visible != len(keys) {
			t.Fatalf("round %d: batch partially visible (%d/%d keys)", round, visible, len(keys))
		}
	}
}
