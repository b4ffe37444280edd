package harness

import (
	"strconv"
	"testing"

	"anykey"
)

func smallClusterRun() ClusterRunConfig {
	return ClusterRunConfig{
		Cluster: anykey.ClusterOptions{
			Shards:     2,
			QueueDepth: 8,
			Device: anykey.Options{
				Design:          anykey.DesignAnyKeyPlus,
				CapacityMB:      16,
				Channels:        4,
				ChipsPerChannel: 4,
			},
		},
		BaseConfig: BaseConfig{Workload: mustSpec("ZippyDB"), MaxOps: 1500},
	}
}

func TestRunClusterEndToEnd(t *testing.T) {
	res, err := RunCluster(smallClusterRun())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 1500 {
		t.Fatalf("ops = %d, want 1500", res.Ops)
	}
	if res.Verified == 0 {
		t.Fatal("no reads verified")
	}
	var sum int64
	for _, n := range res.ShardOps {
		sum += n
	}
	if sum != res.Ops {
		t.Fatalf("shard ops %v sum to %d, want %d", res.ShardOps, sum, res.Ops)
	}
	if res.HottestShare <= 0 || res.HottestShare > 1 {
		t.Fatalf("hottest share %v out of range", res.HottestShare)
	}
	if res.IOPS <= 0 || res.SimSeconds <= 0 {
		t.Fatalf("no throughput measured: IOPS=%v sim=%vs", res.IOPS, res.SimSeconds)
	}
	if res.Exec.TotalReads() == 0 || res.Total.TotalWrites() == 0 {
		t.Fatalf("flash counters empty: exec=%+v total=%+v", res.Exec, res.Total)
	}
	if res.ReadLat.Count() == 0 || res.WriteLat.Count() == 0 || res.BatchLat.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
	if res.QueueWaitLat.Count() == 0 || res.ServiceLat.Count() == 0 {
		t.Fatal("breakdown histograms empty")
	}
}

// TestClusterReportGoldenDeterminism pins the cluster experiment's
// determinism contract: the report is byte-identical whether its cells run
// sequentially or on a parallel worker pool, and the property holds across
// seeds.
func TestClusterReportGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick cluster sweep four times")
	}
	golden := map[int64]reportPin{
		1: {1733, 0xd26e8f4b30a19e69},
		7: {1727, 0xda7b509dfae58a32},
	}
	for _, seed := range []int64{1, 7} {
		serial, err := RunExperiment("cluster", ExpOptions{Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := RunExperiment("cluster", ExpOptions{Quick: true, Seed: seed, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		ss, ps := serial.String(), parallel.String()
		if fnv64a(ss) != fnv64a(ps) || ss != ps {
			t.Fatalf("seed %d: sequential and parallel reports differ\n--- sequential ---\n%s\n--- parallel ---\n%s",
				seed, ss, ps)
		}
		golden[seed].check(t, "cluster seed "+strconv.FormatInt(seed, 10), ss)
	}
}
