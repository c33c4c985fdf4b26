package crashsim

import (
	"testing"

	"ballista/internal/osprofile"
)

// BenchmarkCrashEnum measures the full oracle pipeline — execute,
// enumerate legal states, check invariants — over a fixed slice of the
// bounded workload set on all seven profiles.  The cases/sec metric
// (workload evaluations per second) is gated by cmd/benchgate against
// the committed BENCH_crash.json baseline.
func BenchmarkCrashEnum(b *testing.B) {
	oses := osprofile.All()
	workloads := Enumerate(nil, 2, 7, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range workloads {
			Evaluate(w, nil, oses)
		}
	}
	b.ReportMetric(float64(b.N*len(workloads))/b.Elapsed().Seconds(), "cases/sec")
}
