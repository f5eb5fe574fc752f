/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * partitioned-L2 access path (misses, hits and job churn), the L1,
 * the duplicate tag array, the stack-distance sampler, the generator,
 * a whole node's advance, generator setup, and the LAC admission test
 * — the hot paths of the simulator and framework.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/duplicate_tags.hh"
#include "cache/partitioned_cache.hh"
#include "common/random.hh"
#include "qos/admission.hh"
#include "sim/cmp_system.hh"
#include "workload/benchmark.hh"
#include "workload/generator.hh"

namespace
{

using namespace cmpqos;

void
BM_PartitionedCacheAccess(benchmark::State &state)
{
    PartitionedCache l2(CacheConfig::l2Default(), 4,
                        static_cast<PartitionScheme>(state.range(0)));
    l2.setTargetWays(0, 7);
    l2.setCoreClass(0, CoreClass::Reserved);
    Rng rng(1);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const Addr addr = (rng.next() & 0xffffff) << 6;
        sink += l2.access(0, addr, false).hit;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionedCacheAccess)
    ->Arg(static_cast<int>(PartitionScheme::None))
    ->Arg(static_cast<int>(PartitionScheme::Global))
    ->Arg(static_cast<int>(PartitionScheme::PerSet));

/**
 * The hit path: a 7-way Reserved core draws loads and stores from a
 * working set of 7 blocks per set, which its partition holds, so only
 * the first touch of each block misses.
 */
void
BM_PartitionedCacheHit(benchmark::State &state)
{
    PartitionedCache l2(CacheConfig::l2Default(), 4, PartitionScheme::PerSet);
    l2.setTargetWays(0, 7);
    l2.setCoreClass(0, CoreClass::Reserved);
    const std::uint64_t blocks = 7 * l2.config().numSets();
    Rng rng(6);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        const std::uint64_t r = rng.next();
        const Addr block = ((r >> 32) * blocks) >> 32; // uniform below blocks
        hits += l2.access(0, block << 6, (r & 3) == 0).hit;
    }
    state.counters["hit_ratio"] = static_cast<double>(hits) /
                                  static_cast<double>(state.iterations());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionedCacheHit);

/**
 * Job churn on a 4-core L2: two Reserved and two Opportunistic cores
 * take turns, each over a hot and a cold range of its own. Every 50k
 * accesses the idle core restarts and the next one is released (its
 * blocks become orphans), and the two reservations trade ways (the
 * shrunk one is over target), so every victim rule of the scheme runs.
 */
void
BM_PartitionedCacheChurn(benchmark::State &state)
{
    PartitionedCache l2(CacheConfig::l2Default(), 4,
                        static_cast<PartitionScheme>(state.range(0)));
    const unsigned targets[2][2] = {{7, 5}, {4, 8}};
    auto start = [&](CoreId core, unsigned phase) {
        if (core < 2) {
            l2.setTargetWays(core, targets[phase][core]);
            l2.setCoreClass(core, CoreClass::Reserved);
        } else {
            l2.setCoreClass(core, CoreClass::Opportunistic);
        }
    };
    for (CoreId c = 1; c < 4; ++c) // core 0 starts idle
        start(c, 0);
    Rng rng(4);
    std::uint64_t sink = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if (++n % 50'000 == 0) {
            const std::uint64_t k = n / 50'000;
            const auto phase = static_cast<unsigned>(k % 2);
            // Shrink one reservation before growing the other, so
            // the reserved sum stays within the associativity.
            const CoreId shrink = phase == 0 ? 1 : 0;
            for (CoreId c : {shrink, 1 - shrink})
                if (l2.coreClass(c) == CoreClass::Reserved)
                    l2.setTargetWays(c, targets[phase][c]);
            start(static_cast<CoreId>((k - 1) % 4), phase);
            l2.releaseCore(static_cast<CoreId>(k % 4));
        }
        const auto core = static_cast<CoreId>(n % 4);
        const std::uint64_t r = rng.next();
        const Addr block = (r & 1) ? (r >> 8) & 0xfff : (r >> 8) & 0xffff;
        const Addr addr = (static_cast<Addr>(core) << 32) | (block << 6);
        sink += l2.access(core, addr, (r & 6) == 0).hit;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionedCacheChurn)
    ->Arg(static_cast<int>(PartitionScheme::Global))
    ->Arg(static_cast<int>(PartitionScheme::PerSet));

/** The private L1: a 64 KiB stream of loads and stores. */
void
BM_SetAssocCacheAccess(benchmark::State &state)
{
    SetAssocCache l1(CacheConfig::l1Default());
    Rng rng(5);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const std::uint64_t r = rng.next();
        sink += l1.access(((r >> 8) & 0x3ff) << 6, (r & 3) == 0).hit;
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SetAssocCacheAccess);

void
BM_DuplicateTagObserve(benchmark::State &state)
{
    DuplicateTagArray dup(CacheConfig::l2Default(), 7,
                          static_cast<unsigned>(state.range(0)));
    Rng rng(2);
    for (auto _ : state) {
        const Addr addr = (rng.next() & 0xffffff) << 6;
        benchmark::DoNotOptimize(dup.observe(addr, true));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DuplicateTagObserve)->Arg(1)->Arg(8);

void
BM_StackSamplerAccess(benchmark::State &state)
{
    LruStackSampler stack;
    Rng rng(3);
    // Populate.
    for (int i = 0; i < 50'000; ++i)
        stack.accessNew();
    for (auto _ : state) {
        const std::uint64_t d = 1 + rng.uniformInt(40'000);
        benchmark::DoNotOptimize(stack.accessAtDistance(d));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StackSamplerAccess);

void
BM_GeneratorRun(benchmark::State &state)
{
    const auto &b = BenchmarkRegistry::get("bzip2");
    AccessGenerator gen(b, 4, 0);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        gen.run(1000, [&](Addr a, bool) { sink += a; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
    state.SetLabel("items = instructions");
}
BENCHMARK(BM_GeneratorRun);

/**
 * The whole node access path: four Reserved cores with four ways each
 * run bzip2, hmmer, gobmk and mcf, advanced round robin in
 * 20k-instruction chunks through the generator, the L2 and the CPI
 * model. The jobs never finish, and each core's first chunk (which
 * builds its stream) runs before timing starts.
 */
void
BM_CmpSystemAdvance(benchmark::State &state)
{
    CmpSystem sys;
    const char *const names[] = {"bzip2", "hmmer", "gobmk", "mcf"};
    std::vector<std::unique_ptr<JobExecution>> jobs;
    for (CoreId c = 0; c < 4; ++c) {
        sys.l2().setTargetWays(c, 4);
        sys.l2().setCoreClass(c, CoreClass::Reserved);
        jobs.push_back(std::make_unique<JobExecution>(
            c, BenchmarkRegistry::get(names[c]), InstCount{1} << 50,
            static_cast<std::uint64_t>(c) + 1));
        sys.enqueueJob(c, jobs.back().get());
        sys.advance(c, sys.config().chunkInstructions);
    }
    std::int64_t instructions = 0;
    CoreId core = 0;
    for (auto _ : state) {
        instructions += static_cast<std::int64_t>(
            sys.advance(core, sys.config().chunkInstructions).instructions);
        core = (core + 1) % 4;
    }
    state.SetItemsProcessed(instructions);
    state.SetLabel("items = instructions");
}
BENCHMARK(BM_CmpSystemAdvance);

/** Job setup: an AccessGenerator with its warmed reuse stack. */
void
BM_GeneratorSetup(benchmark::State &state, const char *benchmark_name)
{
    const auto &b = BenchmarkRegistry::get(benchmark_name);
    std::uint64_t seed = 0;
    for (auto _ : state) {
        AccessGenerator gen(b, ++seed, 0);
        benchmark::DoNotOptimize(gen);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetLabel("items = generators");
}
BENCHMARK_CAPTURE(BM_GeneratorSetup, bzip2, "bzip2");
BENCHMARK_CAPTURE(BM_GeneratorSetup, mcf, "mcf");

void
BM_LacAdmissionTest(benchmark::State &state)
{
    LocalAdmissionController lac;
    // Pre-load the timeline with reservations to scan.
    const int preload = static_cast<int>(state.range(0));
    for (int i = 0; i < preload; ++i) {
        QosTarget t;
        t.cores = 1;
        t.cacheWays = 7;
        t.maxWallClock = 1000;
        t.relativeDeadline = 100'000'000;
        Job j(i, "bzip2", 1, t, ModeSpec::strict());
        lac.submit(j, 0);
    }
    QosTarget t;
    t.cores = 1;
    t.cacheWays = 7;
    t.maxWallClock = 1000;
    t.relativeDeadline = 2000;
    Job probe_job(preload + 1, "bzip2", 1, t, ModeSpec::strict());
    for (auto _ : state)
        benchmark::DoNotOptimize(lac.probe(probe_job, 0));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LacAdmissionTest)->Arg(2)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
