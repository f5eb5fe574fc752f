/**
 * @file
 * Trace CLI:
 *   trace_tool record <benchmark> <instructions> <file> [seed]
 *       Capture a benchmark model's L2 access stream to a trace.
 *   trace_tool stats <file>
 *       Print record counts, footprint, and read/write mix.
 *   trace_tool replay <file> <ways>
 *       Replay a trace through a <ways>-way partition of the default
 *       L2 and report hit/miss behaviour.
 */

#include <cstdio>
#include <set>
#include <string>

#include "cache/partitioned_cache.hh"
#include "common/build_info.hh"
#include "workload/trace.hh"
#include "tool_flags.hh"

using namespace cmpqos;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  trace_tool record <benchmark> <instructions> "
                 "<file> [seed]\n"
                 "  trace_tool stats <file>\n"
                 "  trace_tool replay <file> <ways>\n");
    return 2;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 5)
        return usage();
    const std::string bench = argv[2];
    if (!BenchmarkRegistry::has(bench)) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
        return 2;
    }
    // A longer stream would leave the job's address window, a fatal.
    InstCount instr = 0;
    readFlag(argv[0], "instructions", argv[3], instr,
             "an instruction count the job's address window holds", 0,
             static_cast<double>(
                 maxJobInstructions(BenchmarkRegistry::get(bench))));
    const std::string path = argv[4];
    std::uint64_t seed = 1;
    if (argc > 5)
        readFlag(argv[0], "seed", argv[5], seed, "an unsigned integer");
    AccessGenerator gen(BenchmarkRegistry::get(bench), seed,
                        jobAddressBase(0));
    const auto n = recordTrace(gen, instr, path);
    std::printf("recorded %llu accesses over %llu instructions of %s "
                "to %s\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(instr), bench.c_str(),
                path.c_str());
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    TraceReader reader(argv[2]);
    std::set<Addr> blocks;
    std::uint64_t writes = 0, total = 0;
    InstCount last_instr = 0;
    TraceRecord r;
    while (reader.next(r)) {
        ++total;
        writes += r.isWrite;
        blocks.insert(r.addr / reader.blockSize());
        last_instr = r.instruction;
    }
    std::printf("records:        %llu\n",
                static_cast<unsigned long long>(total));
    std::printf("instructions:   %llu\n",
                static_cast<unsigned long long>(last_instr + 1));
    std::printf("distinct blocks:%zu (%.2f MB footprint)\n",
                blocks.size(),
                static_cast<double>(blocks.size()) *
                    reader.blockSize() / 1e6);
    std::printf("write fraction: %.3f\n",
                total ? static_cast<double>(writes) /
                            static_cast<double>(total)
                      : 0.0);
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    unsigned ways = 0;
    readFlag(argv[0], "ways", argv[3], ways, "a way count");
    TraceReader reader(argv[2]);
    PartitionedCache l2(CacheConfig::l2Default(), 1,
                        PartitionScheme::PerSet);
    l2.setTargetWays(0, ways);
    l2.setCoreClass(0, CoreClass::Reserved);
    reader.replay([&](Addr a, bool w) { l2.access(0, a, w); });
    const auto &st = l2.coreStats(0);
    std::printf("replayed %llu accesses at %u ways: miss rate %.3f "
                "(%llu misses, %llu writebacks)\n",
                static_cast<unsigned long long>(st.accesses), ways,
                st.missRate(),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.writebacks));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (handleVersionFlag("trace_tool", argc, argv))
        return 0;
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc, argv);
    if (cmd == "stats")
        return cmdStats(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    return usage();
}
