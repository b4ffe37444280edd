package cluster_test

// The single-copy batch and routing contract, checked through the public
// facade at Replication.Factor 0 — the fleet running one copy per key —
// plus the fleet's own construction checks.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"anykey"
	"anykey/internal/cluster"
	"anykey/internal/cluster/fleet"
	"anykey/internal/core"
	"anykey/internal/device"
	"anykey/internal/nand"
	"anykey/internal/sim"
	"anykey/internal/trace"
)

// freshCluster opens a single-copy cluster of small independent AnyKey+
// shards.
func freshCluster(t *testing.T, shards, qd int, router anykey.RouterPolicy) *anykey.Cluster {
	t.Helper()
	c, err := anykey.OpenCluster(anykey.ClusterOptions{
		Shards:     shards,
		QueueDepth: qd,
		Router:     router,
		Device:     anykey.Options{CapacityMB: 16, Channels: 4, ChipsPerChannel: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	return keys
}

func testValues(n int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 64)
	}
	return vals
}

func TestRoutingDeterministicAndTotal(t *testing.T) {
	for _, policy := range []anykey.RouterPolicy{anykey.RouteConsistent, anykey.RouteModulo} {
		c := freshCluster(t, 4, 1, policy)
		if c.Router() != policy {
			t.Fatalf("router %v, want %v", c.Router(), policy)
		}
		keys := testKeys(2000)
		counts := make([]int, c.Shards())
		for _, k := range keys {
			s := c.ShardFor(k)
			if s < 0 || s >= c.Shards() {
				t.Fatalf("%v: shard %d out of range", policy, s)
			}
			if again := c.ShardFor(k); again != s {
				t.Fatalf("%v: key routed to %d then %d", policy, s, again)
			}
			counts[s]++
		}
		// Both policies should spread a uniform keyspace reasonably: no
		// shard empty, no shard over half the keys.
		for s, n := range counts {
			if n == 0 {
				t.Errorf("%v: shard %d received no keys (counts %v)", policy, s, counts)
			}
			if n > len(keys)/2 {
				t.Errorf("%v: shard %d received %d/%d keys", policy, s, n, len(keys))
			}
		}
		// A batch lands every key on the shard ShardFor names.
		br, err := c.MultiPut(keys[:256], testValues(256))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range br.Shards {
			if s != c.ShardFor(keys[i]) {
				t.Fatalf("%v: key %d executed on shard %d, routed to %d", policy, i, s, c.ShardFor(keys[i]))
			}
		}
	}
}

func TestRingStableAcrossInstances(t *testing.T) {
	a := freshCluster(t, 4, 1, anykey.RouteConsistent)
	b := freshCluster(t, 4, 1, anykey.RouteConsistent)
	ring := cluster.BuildRing([]int32{0, 1, 2, 3}, 64)
	for _, k := range testKeys(500) {
		if a.ShardFor(k) != b.ShardFor(k) {
			t.Fatalf("two identically configured clusters route %q differently", k)
		}
		if a.ShardFor(k) != int(ring.Owner(k)) {
			t.Fatalf("cluster routes %q off the ring owner", k)
		}
	}
}

func TestMultiPutGetRoundTrip(t *testing.T) {
	c := freshCluster(t, 4, 8, anykey.RouteConsistent)
	keys, vals := testKeys(256), testValues(256)

	pr, err := c.MultiPut(keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if pr.Done < pr.Start || pr.Latency() < 0 {
		t.Fatalf("batch span inverted: start %v done %v", pr.Start, pr.Done)
	}

	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gr.Errs[i] != nil {
			t.Fatalf("get %q: %v", keys[i], gr.Errs[i])
		}
		if !bytes.Equal(gr.Completions[i].Value, vals[i]) {
			t.Fatalf("get %q returned wrong value", keys[i])
		}
		if gr.Shards[i] != c.ShardFor(keys[i]) {
			t.Fatalf("completion shard %d != routed shard", gr.Shards[i])
		}
	}
	// Batch Done must be the max of per-op completion times.
	var max sim.Time
	for _, comp := range gr.Completions {
		if comp.Done > max {
			max = comp.Done
		}
	}
	if gr.Done != max {
		t.Fatalf("batch Done %v != max completion %v", gr.Done, max)
	}
}

func TestMultiGetValuesSurviveLaterOps(t *testing.T) {
	c := freshCluster(t, 2, 1, anykey.RouteConsistent)
	keys, vals := testKeys(64), testValues(64)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the devices so any device-owned buffers get reused…
	if _, err := c.MultiPut(keys, testValues(64)); err != nil {
		t.Fatal(err)
	}
	// …then check the batch's values are still the originals.
	for i := range keys {
		if !bytes.Equal(gr.Completions[i].Value, vals[i]) {
			t.Fatalf("value %d mutated after later batch", i)
		}
	}
}

func TestMultiGetMissReportsNotFound(t *testing.T) {
	c := freshCluster(t, 4, 1, anykey.RouteConsistent)
	keys, vals := testKeys(8), testValues(8)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := append([][]byte{}, keys[:4]...)
	probe = append(probe, []byte("absent-1"), []byte("absent-2"), nil)
	gr, err := c.MultiGet(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if gr.Errs[i] != nil {
			t.Fatalf("present key %d: %v", i, gr.Errs[i])
		}
	}
	for i := 4; i < 6; i++ {
		if !errors.Is(gr.Errs[i], anykey.ErrNotFound) {
			t.Fatalf("absent key %d: got %v, want ErrNotFound", i, gr.Errs[i])
		}
	}
	// A read the device rejects reports the device's error, not a miss.
	if !errors.Is(gr.Errs[6], anykey.ErrEmptyKey) {
		t.Fatalf("empty key: got %v, want ErrEmptyKey", gr.Errs[6])
	}
}

func TestBatchDuplicateKeysLastWriteWins(t *testing.T) {
	c := freshCluster(t, 4, 1, anykey.RouteConsistent)
	k := []byte("dup-key")
	_, err := c.MultiPut([][]byte{k, k}, [][]byte{[]byte("first"), []byte("second")})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "second" {
		t.Fatalf("duplicate key resolved to %q, want later write", v)
	}
}

func TestMultiDelete(t *testing.T) {
	c := freshCluster(t, 4, 1, anykey.RouteConsistent)
	keys, vals := testKeys(32), testValues(32)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	dr, err := c.MultiDelete(keys[:16])
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.FirstErr(); err != nil {
		t.Fatal(err)
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if i < 16 && !errors.Is(gr.Errs[i], anykey.ErrNotFound) {
			t.Fatalf("deleted key %d still readable (%v)", i, gr.Errs[i])
		}
		if i >= 16 && gr.Errs[i] != nil {
			t.Fatalf("surviving key %d: %v", i, gr.Errs[i])
		}
	}
}

func TestMultiPutLengthMismatch(t *testing.T) {
	c := freshCluster(t, 2, 1, anykey.RouteConsistent)
	if _, err := c.MultiPut(testKeys(3), testValues(2)); !errors.Is(err, anykey.ErrInvalidOptions) {
		t.Fatalf("length mismatch: got %v, want ErrInvalidOptions", err)
	}
}

func TestStatsRollup(t *testing.T) {
	c := freshCluster(t, 4, 4, anykey.RouteConsistent)
	keys, vals := testKeys(256), testValues(256)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MultiGet(keys); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("shard count wrong: %+v", st)
	}
	if st.Ops != 512 {
		t.Fatalf("ops rollup %d, want 512", st.Ops)
	}
	if st.LiveKeys != 256 {
		t.Fatalf("live keys rollup %d, want 256", st.LiveKeys)
	}
	var ops, keysSum int64
	var maxNow sim.Time
	for _, ss := range st.PerShard {
		ops += ss.Ops
		keysSum += ss.LiveKeys
		if ss.Now > maxNow {
			maxNow = ss.Now
		}
		if ss.Ops == 0 {
			t.Errorf("shard %d carried no ops", ss.Shard)
		}
	}
	if ops != st.Ops || keysSum != st.LiveKeys || maxNow != st.Now {
		t.Fatalf("per-shard rows do not sum to rollup")
	}
	if got := st.QueueWait.Count() + st.Service.Count(); got == 0 {
		t.Fatal("merged breakdown histograms empty")
	}
	if st.ReadAccesses.Count() == 0 {
		t.Fatal("merged read-access histogram empty")
	}
}

func TestClockDomainsIndependent(t *testing.T) {
	c := freshCluster(t, 2, 1, anykey.RouteConsistent)
	// Route every op to one shard: the other shard's clock must not move.
	k := []byte("pinned")
	target := c.ShardFor(k)
	other := 1 - target
	for i := 0; i < 32; i++ {
		if _, err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.ShardNow(other); got != 0 {
		t.Fatalf("idle shard's clock advanced to %v", got)
	}
	if c.Now() != c.ShardNow(target) {
		t.Fatal("cluster clock is not the max over shard clocks")
	}
	if c.Now() == 0 {
		t.Fatal("busy shard's clock did not advance")
	}
}

func TestSyncBarrier(t *testing.T) {
	c := freshCluster(t, 4, 8, anykey.RouteConsistent)
	keys, vals := testKeys(128), testValues(128)
	if _, err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	done, err := c.Sync()
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := c.Barrier()
	if err != nil {
		t.Fatal(err)
	}
	if done < barrier || barrier != c.Now() {
		t.Fatalf("sync done %v, barrier %v, merged clock %v", done, barrier, c.Now())
	}
	gr, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	newDev := func(int) (device.KVSSD, *trace.Tracer, error) { return nil, nil, errors.New("fixed fleet") }
	if _, err := fleet.New(nil, fleet.Config{NewDevice: newDev}); err == nil {
		t.Fatal("empty device list accepted")
	}
	var devs []device.KVSSD
	for i := 0; i < 2; i++ {
		geo := nand.Geometry{Channels: 4, ChipsPerChannel: 4, BlocksPerChip: 4, PagesPerBlock: 64, PageSize: 8192}
		d, err := core.New(core.Config{Geometry: geo, Plus: true, Seed: int64(1 + i)})
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
	}
	bad := map[string]fleet.Config{
		"unknown policy":        {Policy: cluster.Policy(99), NewDevice: newDev},
		"tracer count mismatch": {Tracers: []*trace.Tracer{nil}, NewDevice: newDev},
		"modulo with replicas":  {Policy: cluster.RouteModulo, Repl: fleet.Replication{Factor: 2}, NewDevice: newDev},
		"no device factory":     {},
	}
	for name, cfg := range bad {
		if _, err := fleet.New(devs, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	f, err := fleet.New(devs, fleet.Config{Policy: cluster.RouteModulo, NewDevice: newDev})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddShard(); err == nil {
		t.Fatal("AddShard accepted under modulo routing")
	}
	if _, err := f.RemoveShard(0); err == nil {
		t.Fatal("RemoveShard accepted under modulo routing")
	}
	if cluster.Policy(99).String() == cluster.RouteModulo.String() {
		t.Fatal("policy names collide")
	}
}
