package harness

import (
	"hash/fnv"
	"testing"

	"anykey"
)

// goldenOpts is the exact configuration the golden hashes below were pinned
// under. Quick mode fixes the op count, capacity and seed, so the reports
// are fully deterministic.
var goldenOpts = ExpOptions{Quick: true, MaxOps: 3000, CapacityMB: 32}

// golden report fingerprints, pinned before the tracing subsystem landed.
// They assert the end-to-end promise of the instrumentation: adding trace
// hooks to every layer changed no simulated timestamp, so the reports are
// byte-identical to the pre-tracing tree.
var goldenReports = []struct {
	id   string
	hash uint64
	size int
}{
	{"fig2", 0x4912efed7d306643, 909},
	{"table3", 0x1c54f7014c3578aa, 866},
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// reportPin is a rendered report's recorded fingerprint: its byte length
// and FNV-64a hash.
type reportPin struct {
	size int
	hash uint64
}

// check fails t when report s no longer matches the pinned fingerprint.
func (p reportPin) check(t *testing.T, name, s string) {
	t.Helper()
	if len(s) != p.size || fnv64a(s) != p.hash {
		t.Errorf("%s: report fingerprint changed: len=%d hash=%#x, want len=%d hash=%#x\n%s",
			name, len(s), fnv64a(s), p.size, p.hash, s)
	}
}

// TestGoldenReports regenerates the pinned experiments and compares report
// fingerprints. A failure here means a change altered simulated timing or
// report formatting — either rebaseline deliberately or find the leak.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden reports take ~10s")
	}
	for _, g := range goldenReports {
		rep, err := RunExperiment(g.id, goldenOpts)
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		s := rep.String()
		if len(s) != g.size || fnv64a(s) != g.hash {
			t.Errorf("%s: report fingerprint changed: len=%d hash=%#x, want len=%d hash=%#x\n%s",
				g.id, len(s), fnv64a(s), g.size, g.hash, s)
		}
	}
}

// TestTracingDoesNotPerturbReports runs the same experiment with tracing on
// and compares against the golden fingerprint: the tracer must only observe
// the schedule, never change it.
func TestTracingDoesNotPerturbReports(t *testing.T) {
	if testing.Short() {
		t.Skip("traced golden report takes ~5s")
	}
	opts := goldenOpts
	opts.Trace = &anykey.TraceOptions{}
	rep, err := RunExperiment("fig2", opts)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if len(s) != goldenReports[0].size || fnv64a(s) != goldenReports[0].hash {
		t.Errorf("traced fig2 diverged from untraced golden: len=%d hash=%#x, want len=%d hash=%#x\n%s",
			len(s), fnv64a(s), goldenReports[0].size, goldenReports[0].hash, s)
	}
}
