package ballista_test

import (
	"context"
	"testing"

	"ballista"
)

// BenchmarkScarceSweep measures the full scarcity pipeline — enumerate
// the budgeted MuT union, deplete each environment, probe every profile
// through the crash/degradation/leak oracles, minimize and merge — at
// the sweep's default concurrency.  The cases/sec metric (scarcity
// probes per second) is gated by cmd/benchgate against the committed
// BENCH_scarce.json baseline.
func BenchmarkScarceSweep(b *testing.B) {
	cfg := ballista.ScarceConfig{Seed: 7, Budget: 50, Workers: 8}
	var probes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ballista.ScarceSweep(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		probes = rep.Probes
	}
	b.ReportMetric(float64(b.N*probes)/b.Elapsed().Seconds(), "cases/sec")
}
