package anykey

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func smallFleetOpts(factor, quorum int) ClusterOptions {
	o := smallClusterOpts()
	o.Replication = ReplicationOptions{Factor: factor, WriteQuorum: quorum}
	return o
}

func TestFleetOptionsValidation(t *testing.T) {
	if _, err := OpenCluster(smallFleetOpts(-1, 0)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("negative factor: %v", err)
	}
	if _, err := OpenCluster(smallFleetOpts(9, 0)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("factor above shards: %v", err)
	}
	if _, err := OpenCluster(smallFleetOpts(2, 3)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("quorum above factor: %v", err)
	}
	if _, err := OpenCluster(smallFleetOpts(0, 2)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("quorum without factor: %v", err)
	}
	o := smallFleetOpts(2, 0)
	o.Router = RouteModulo
	if _, err := OpenCluster(o); !errors.Is(err, ErrUnsupported) {
		t.Errorf("replication over modulo: %v", err)
	}
	// WriteQuorum normalizes to Factor.
	o = smallFleetOpts(3, 0)
	if err := o.Validate(); err != nil || o.Replication.WriteQuorum != 3 {
		t.Errorf("quorum default: %+v %v", o.Replication, err)
	}

	// A non-replicated cluster refuses the fleet-only calls.
	plain, err := OpenCluster(smallClusterOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.AddShard(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("AddShard on plain cluster: %v", err)
	}
	if err := plain.KillShard(0, KillPowerCut); !errors.Is(err, ErrUnsupported) {
		t.Errorf("KillShard on plain cluster: %v", err)
	}
	if got := plain.Replication(); got.Factor != 0 {
		t.Errorf("plain Replication() = %+v", got)
	}
	// The per-replica open-loop calls work at Factor 0: one replica, the
	// key's shard, counting toward a quorum of one.
	key, now := []byte("user:00042"), func(int) Time { return 0 }
	put, err := plain.FleetPutAt(now, key, []byte("v"))
	if err != nil || put.Err != nil || len(put.Replicas) != 1 || !put.Replicas[0].Quorum ||
		put.Primary() != plain.ShardFor(key) {
		t.Errorf("FleetPutAt on plain cluster: %+v %v", put, err)
	}
	get, err := plain.FleetGetAt(now, key)
	if err != nil || get.Err != nil || len(get.Replicas) != 1 || !bytes.Equal(get.Value, []byte("v")) ||
		get.Primary() != plain.ShardFor(key) {
		t.Errorf("FleetGetAt on plain cluster: %+v %v", get, err)
	}
}

func TestFleetRoundTripAndKill(t *testing.T) {
	c, err := OpenCluster(smallFleetOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var keys, vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user:%05d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('a' + i%26)}, 80))
	}
	pr, err := c.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if pr.Latency() < 0 {
		t.Fatalf("negative batch latency %v", pr.Latency())
	}

	if err := c.KillShard(1, KillGrownBad); err != nil {
		t.Fatal(err)
	}
	state, cause, err := c.ShardState(1)
	if err != nil || state != "dead" || cause != "grown-bad" {
		t.Fatalf("ShardState = %q/%q (%v)", state, cause, err)
	}
	// Every key survives the kill at R=2.
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gr.Errs[i] != nil || !bytes.Equal(gr.Completions[i].Value, vals[i]) {
			t.Fatalf("key %d after kill: %v", i, gr.Errs[i])
		}
	}
	fs, err := c.FleetStats()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Repl.DeadMembers != 1 || fs.Repl.Factor != 2 {
		t.Fatalf("FleetStats.Repl = %+v", fs.Repl)
	}

	// Rebuild restores the replica and the counters say so.
	rb, err := c.RebuildShard(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Run(); err != nil {
		t.Fatal(err)
	}
	fs, _ = c.FleetStats()
	if fs.Repl.Rebuilds != 1 || fs.Repl.RebuiltKeys == 0 || fs.Repl.DeadMembers != 0 {
		t.Fatalf("post-rebuild FleetStats.Repl = %+v", fs.Repl)
	}
}

func TestFleetTopologyChangeUnderTraffic(t *testing.T) {
	c, err := OpenCluster(smallFleetOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var keys, vals [][]byte
	for i := 0; i < 240; i++ {
		keys = append(keys, []byte(fmt.Sprintf("item:%05d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte('0' + i%10)}, 64))
	}
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}

	mig, err := c.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 5 {
		t.Fatalf("Shards() after AddShard = %d", c.Shards())
	}
	if _, err := c.RemoveShard(0); !errors.Is(err, ErrMigrationInProgress) {
		t.Fatalf("RemoveShard mid-migration: %v", err)
	}
	if st := c.Migrating(); !st.Active || st.Kind != "add" {
		t.Fatalf("Migrating() = %+v", st)
	}
	// Interleave: step, read, step — double-read keeps every key visible.
	if _, err := mig.Step(30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 11 {
		v, _, err := c.Get(keys[i])
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("mid-migration get %d: %v", i, err)
		}
	}
	if err := mig.Run(); err != nil {
		t.Fatal(err)
	}
	if st := c.Migrating(); st.Active || st.Epoch != 1 {
		t.Fatalf("post-commit Migrating() = %+v", st)
	}
	fs, _ := c.FleetStats()
	if fs.Repl.MigratedKeys == 0 {
		t.Fatal("no keys migrated")
	}
	for i := range keys {
		v, _, err := c.Get(keys[i])
		if err != nil || !bytes.Equal(v, vals[i]) {
			t.Fatalf("post-migration get %d: %v", i, err)
		}
	}
}

func TestFleetSentinelRoundTrips(t *testing.T) {
	for _, sent := range []error{ErrQuorumNotMet, ErrShardDown, ErrMigrationInProgress} {
		wrapped := fmt.Errorf("context: %w", sent)
		if !errors.Is(wrapped, sent) {
			t.Errorf("errors.Is failed for %v", sent)
		}
	}
	// Live round trip: kill enough members that writes fail quorum, then
	// all members, so reads report every-replica-down.
	c, err := OpenCluster(smallFleetOpts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := []byte("sentinel-key")
	if _, err := c.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < 4; s++ {
		if err := c.KillShard(s, KillPowerCut); err != nil {
			t.Fatal(err)
		}
	}
	sawQuorum := false
	for i := 0; i < 50 && !sawQuorum; i++ {
		_, err := c.Put([]byte(fmt.Sprintf("qk-%d", i)), []byte("v"))
		if errors.Is(err, ErrQuorumNotMet) {
			sawQuorum = true
		}
	}
	if !sawQuorum {
		t.Fatal("never saw ErrQuorumNotMet with three dead members")
	}
	if err := c.KillShard(0, KillPowerCut); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(key); !errors.Is(err, ErrShardDown) {
		t.Fatalf("get with all dead: %v, want ErrShardDown", err)
	}
}

// TestPutOnFullShardKeepsCause fills tiny shards until a Put fails and
// requires the verdict to carry the device's cause: errors.Is matches
// ErrDeviceFull as well as the fleet's ErrQuorumNotMet, with one copy per
// key and with two.
func TestPutOnFullShardKeepsCause(t *testing.T) {
	for _, factor := range []int{0, 2} {
		o := ClusterOptions{
			Shards:      2,
			Device:      Options{CapacityMB: 2, Channels: 2, ChipsPerChannel: 2},
			Replication: ReplicationOptions{Factor: factor},
		}
		c, err := OpenCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{'v'}, 4000)
		var putErr error
		for i := 0; i < 10000 && putErr == nil; i++ {
			_, putErr = c.Put([]byte(fmt.Sprintf("fill-%06d", i)), val)
		}
		c.Close()
		if putErr == nil {
			t.Fatalf("factor %d: shards never filled", factor)
		}
		if !errors.Is(putErr, ErrDeviceFull) || !errors.Is(putErr, ErrQuorumNotMet) {
			t.Errorf("factor %d: full-shard Put returned %v, want ErrDeviceFull wrapped in ErrQuorumNotMet", factor, putErr)
		}
	}
}
