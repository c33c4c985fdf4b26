// Command perfbench is the repository's benchmark: one command that runs
// one of four named workloads of the Ballista harness, checks the
// outputs are correct, and prints every metric by name with its unit.
// BENCHMARK.json at the repository root declares the workloads, the
// metrics and the bound each end-to-end metric may worsen by.
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout it runs in, keeping the
// Go build cache, the binary, scratch files, span traces and a result
// file per run under .bench_build/.  The last line of standard output
// is the JSON summary {"correct", "attempted", "failed", "metrics"}; the
// lines before it carry the run manifest (host, toolchain, code version,
// seed, sizes), every metric by name with its unit, failed_share, and
// any output-check problem.
//
// The benchmark calls into the program only through public functions:
// the ballista facade (NewFarm/RunFarm, Explore, ScarceSweep,
// CrashSweep, OpenStore/WithStore, FleetEnv, the report functions),
// fleet.New and fleet.RunWorker.  The traced run builds the same
// engines from the constructors the facade uses (farm.New,
// core.NewRunner, explore.New, scarce.Sweep, crashsim.Sweep, fleet.Env)
// with the benchmark's own timing wrappers.
//
// # Workloads
//
// Every workload is a closed loop: one caller runs a pass, waits for it,
// checks its outputs and starts the next, until --seconds have passed.
// Each uses at most 2 workers, slots or pool goroutines: nproc on the
// host the benchmark was tuned on, a shared 2-vCPU Xeon VM.  That host
// runs the same work up to 15% slower from one second to the next, so
// the timed metrics are medians over passes, and a pass's time is the
// sum of each of its segments' (one farm per profile, the report, each
// sweep engine) median over the run.
//
//   - campaign (unit: an executed case).  The paper's reproduction,
//     cold: all seven profiles through a 2-worker farm with no store at
//     cap 300, then Tables 1-3, Figures 1-2 and the per-MuT CSV.  The
//     paper's cap of 5000 takes about a minute a pass here.  Almost all
//     the time is per-case work: suite fixtures, argument constructors,
//     winapi/posixapi/clib dispatch and the sim substrate, while store
//     and fleet do nothing.  Set-up is one warm-up campaign at cap 10.
//   - replay (unit: a case served).  The same campaign served entirely
//     from a result store that set-up filled with one cold pass (an
//     fsync'd on-disk segment, so set-up includes the store writes).  It
//     reaches store reads, shard decode, the merge and the report with
//     no case executed: a faster case path leaves it unchanged, and a
//     store or report change shows here and nowhere else.
//   - fleet (unit: a case in the merged result).  One WinNT campaign at
//     cap 30 over HTTP loopback: a coordinator with the default TTL and
//     heartbeat and one fleet.RunWorker with 2 slots.  Set-up computes
//     the reference result, an in-process 1-worker farm at the same cap.
//     A pass ends when Wait returns the merged result; the worker is
//     then stopped.  Waiting for it to exit on its own would add the
//     coordinator's Heartbeat/2 idle hint (2.5 s) to about half the
//     passes and none of the others, which no run length here averages
//     out; idle time inside the campaign shows in fleet.idle_share.  The
//     coordinator runs without its lease journal: the journal fsyncs
//     every upload while holding the coordinator, which cost ~15% of a
//     pass on a quiet disk and 2.4 times the pass time for minutes at a
//     time when the host's disk was busy (units_per_s spread 43% over
//     ten runs, against ~7% without).  The traced run times one journal
//     append on its own instead (fleet.journal_append_us).
//   - sweeps (unit: one evaluation: a candidate chain, a scarcity probe
//     or a crash workload).  From the workload seed: sixteen Explore
//     campaigns of 125 chains (primary WinNT, all seven profiles, seeds
//     16*seed+k), the full-matrix ScarceSweep and CrashSweep with MaxOps
//     3, each with 2 workers.  One 2000-chain campaign costs up to three
//     times more per chain at one seed than at another; sixteen short
//     trajectories average that out.  It boots a fresh machine per chain
//     or probe instead of repairing a shared one, arms chaos and
//     fingerprints the kernel, so a change that helps campaign but costs
//     the engines shows here.  Set-up runs each engine once on a small
//     budget.
//
// The seed is passed to the sweep engines.  The campaign, replay and
// fleet inputs are fixed by the catalog's name-seeded case sampler
// (paper section 3.1), so for them the seed is recorded and changes
// nothing.
//
// # Output checks
//
// Every pass's outputs are checked, and a pass with a wrong output
// counts all its units as failed.  campaign's CSV and rendered report
// must equal the digests committed in digests.json for the cap;
// replay's must equal the same digests, with no store miss.  fleet's CSV
// must equal the in-process 1-worker reference.  At seed 7 the scarce
// report must equal testdata/scarcesweep-golden.json and the explore and
// crash reports the committed digests.  At any seed every pass must
// equal the run's first.  A traced run checks its traced passes against
// its untraced ones, which proves the probes are pure observation.
//
// # End-to-end metrics
//
// Measured with tracing off, over the measured loop only:
// units_per_s (median units a pass completes over the median pass
// time), allocs_per_unit and alloc_bytes_per_unit (Go heap allocations
// over every unit of the loop), cpu_s_per_kunit (the median over passes
// of process CPU per 1000 units), peak_heap_mb (the median over passes
// of each pass's peak of heap object bytes, sampled every 5 ms) and
// setup_s (the median of three set-ups; for replay it includes the
// cold fill).  failed_share (failed units / attempted) is printed with
// them and carried by the summary's failed and attempted fields; it is
// not a bounded metric because it is 0 on a correct run.
//
// The process runs with a 3 GiB soft memory limit.  The POSIX truncate
// and ftruncate cases grow a simulated file to 2 GiB of real memory, so
// campaign's peak heap is about 4 GiB; without the limit the collector
// lets the heap reach twice that.
//
// # Per-layer metrics
//
// A traced run (--trace 1) sets up once, runs the untraced loop, then
// the traced loop (the two share --seconds), then times sim.mem
// CString over the suite's valid string values, sim.fs Stat over the
// fixture paths and the explore kernel fingerprint on a machine of its
// own, and fsync'd lease-journal appends in the run's scratch
// directory.  The traced loop wraps suite.SetupFixtures, every registry
// TestValue.Make, every dispatched core.Impl and the coordinator's HTTP
// handler, records the span recorder's campaign/shard/mut/case/chain/
// unit/crashwl/scarceitem spans (every span, held in memory per pass;
// the last pass's are written to .bench_build/trace-<workload>.jsonl)
// and reads the kernel's activity counters at every fixture call, whose
// growth between two fixture calls on one machine is one case's
// substrate cost.  The sweep engines boot a machine per evaluation, so
// the sim.kern and sim.mem per-case counts read 0 on sweeps.  Counts are
// per pass; a layer the workload does not reach reads 0.  core.self_us
// is the time of the spans that run cases (case, chain, scarceitem)
// minus the wrapped suite and dispatch time, per fixture call, so on
// campaign the fixture, construct and dispatch shares plus self time
// account for the case span time; on sweeps it also holds machine
// boots, registry construction and fingerprints.  The traced run uses
// one timed copy of the suite registry, and builds and discards a
// registry wherever the facade builds one, so both runs do the same
// work.  bench.trace_overhead_share is 1 - traced/untraced units_per_s.
//
// Each layer's metrics, the end-to-end metric they should move and on
// which workload:
//
//	layer                    metrics                                          moves                              on
//	core                     core.cases, core.case_us_p50/p99,                units_per_s, allocs_per_unit       campaign
//	                         core.self_us, core.skip_share, core.reboots
//	suite                    suite.fixture_us/_share,                         units_per_s                        campaign most, sweeps less,
//	                         suite.construct_us/_share                                                           replay and fleet not at all
//	winapi/posixapi/clib     winapi/posixapi/clib.call_us, dispatch.share     units_per_s, allocs_per_unit       campaign, sweeps
//	sim                      sim.mem.cstring_ns, sim.fs.lookup_ns,            allocs_per_unit, units_per_s       campaign
//	                         sim.kern.processes/handles_per_case,
//	                         sim.mem.pages/heap_allocs_per_case
//	farm                     farm.shards, farm.steals, farm.busy_share,       units_per_s                        campaign
//	                         farm.shard_ms_p50/p99, farm.quarantined
//	store, report            store.hits/misses/hit_ratio/hit_us,              units_per_s                        replay
//	                         report.render_ms
//	fleet                    fleet.join_ms, fleet.lease_ms_p50/p90,           units_per_s, cpu_s_per_kunit       fleet
//	                         fleet.upload_ms_p50/p90, fleet.heartbeat_ms,
//	                         fleet.rpcs, fleet.lease_empty_ratio,
//	                         fleet.upload_kb, fleet.idle_share, fleet.tail_ms
//	fleet journal            fleet.journal_append_us                          units_per_s of a journaled fleet   none (timed on its own)
//	explore/scarce/crashsim  explore.chains/chain_ms_p50/coverage_ratio/      units_per_s                        sweeps
//	                         findings/fingerprint_us, scarce.probes/
//	                         item_ms_p50/findings, crashsim.workloads/
//	                         eval_ms_p50/findings
//	Go runtime, benchmark    go.gc_cycles, go.gc_cpu_share,                   links allocs_per_unit to           every workload
//	                         bench.trace_overhead_share                       units_per_s
//
// fleet.tail_ms is the time from the last upload to Wait returning;
// fleet.idle_share is the time slots spent told to wait (from the empty
// lease to the end of its hint or of the campaign) over slots times the
// campaign's time; fleet.heartbeat_ms reads 0 when a campaign ends
// before the first heartbeat (the default interval is 5 s).
//
// cmd/benchgate, the BENCH_*.json baselines and CI are deliberately left
// as they are; retiring them in favour of this benchmark is separate
// work.
//
// The package has its own go.mod, so `go test ./...` at the repository
// root does not run its tests; run them with `cd perfbench && go test .`.
package main
