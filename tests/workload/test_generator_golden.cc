/**
 * @file
 * Golden digests of the synthetic access streams: for every benchmark
 * profile, trace mode and two seeds, an FNV-1a 64 digest of the first
 * 200k emitted (address, is_write) pairs and of the standing set that
 * forEachStandingBlock() visits right after construction. Any change
 * to the sampler, the profiles or the random stream that moves a
 * single access fails here, naming the case.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "workload/benchmark.hh"
#include "workload/generator.hh"

namespace cmpqos
{
namespace
{

struct StreamGolden
{
    const char *benchmark;
    TraceMode mode;
    std::uint64_t seed;
    /** Digest of the first kStreamAccesses (address, is_write) pairs. */
    std::uint64_t stream;
    /** Digest of the standing set, LRU to MRU, after construction. */
    std::uint64_t standing;
};

constexpr std::uint64_t kStreamAccesses = 200'000;

// clang-format off
const StreamGolden kGoldens[] = {
    {"bzip2", TraceMode::L2Stream, 1, 0xeca63d7e9bbd8ff3ULL, 0x613b25bcd0e1ec25ULL},
    {"bzip2", TraceMode::L2Stream, 7, 0x5897fedd892e5699ULL, 0x613b25bcd0e1ec25ULL},
    {"bzip2", TraceMode::Full, 1, 0x7c5d97e637e2df98ULL, 0x613b25bcd0e1ec25ULL},
    {"bzip2", TraceMode::Full, 7, 0x8c97bc99f0c8d6b4ULL, 0x613b25bcd0e1ec25ULL},
    {"mcf", TraceMode::L2Stream, 1, 0xae74ea7fbae24968ULL, 0x14cde7e1438c9ec5ULL},
    {"mcf", TraceMode::L2Stream, 7, 0xa809beeaf55e78b3ULL, 0x14cde7e1438c9ec5ULL},
    {"mcf", TraceMode::Full, 1, 0x450866267b04d463ULL, 0x14cde7e1438c9ec5ULL},
    {"mcf", TraceMode::Full, 7, 0x84b2a620cfe47719ULL, 0x14cde7e1438c9ec5ULL},
    {"soplex", TraceMode::L2Stream, 1, 0xd617411276f4668bULL, 0x559dee2d20ae30a5ULL},
    {"soplex", TraceMode::L2Stream, 7, 0x85b1c703ccc9fdfcULL, 0x559dee2d20ae30a5ULL},
    {"soplex", TraceMode::Full, 1, 0x2a07a8a401abab24ULL, 0x559dee2d20ae30a5ULL},
    {"soplex", TraceMode::Full, 7, 0x5c28f7c88fa210afULL, 0x559dee2d20ae30a5ULL},
    {"sphinx", TraceMode::L2Stream, 1, 0x2a14c97bad05f23cULL, 0x75fb1750bafef525ULL},
    {"sphinx", TraceMode::L2Stream, 7, 0x92799523acab4f89ULL, 0x75fb1750bafef525ULL},
    {"sphinx", TraceMode::Full, 1, 0x808a4e42a039bf3fULL, 0x75fb1750bafef525ULL},
    {"sphinx", TraceMode::Full, 7, 0x32a9060925c4b1edULL, 0x75fb1750bafef525ULL},
    {"astar", TraceMode::L2Stream, 1, 0x7a3acfc47f8c8204ULL, 0xa59eab23e478adf5ULL},
    {"astar", TraceMode::L2Stream, 7, 0x95aee207134649d6ULL, 0xa59eab23e478adf5ULL},
    {"astar", TraceMode::Full, 1, 0xea09be512e45eea7ULL, 0xa59eab23e478adf5ULL},
    {"astar", TraceMode::Full, 7, 0x5af4dedd8143bf52ULL, 0xa59eab23e478adf5ULL},
    {"hmmer", TraceMode::L2Stream, 1, 0xa30a9e1613e2406dULL, 0x1734ab28e9090a25ULL},
    {"hmmer", TraceMode::L2Stream, 7, 0x9d04d2575f2dda26ULL, 0x1734ab28e9090a25ULL},
    {"hmmer", TraceMode::Full, 1, 0xc17239d09eb20aa0ULL, 0x1734ab28e9090a25ULL},
    {"hmmer", TraceMode::Full, 7, 0xcf45ad7b4239b905ULL, 0x1734ab28e9090a25ULL},
    {"gcc", TraceMode::L2Stream, 1, 0x2edd8a4a69536985ULL, 0xe32ab26f64bc30a5ULL},
    {"gcc", TraceMode::L2Stream, 7, 0xfa3522a8aac8627aULL, 0xe32ab26f64bc30a5ULL},
    {"gcc", TraceMode::Full, 1, 0xfcb087299e0af8c2ULL, 0xe32ab26f64bc30a5ULL},
    {"gcc", TraceMode::Full, 7, 0x03c708bcbed18930ULL, 0xe32ab26f64bc30a5ULL},
    {"perl", TraceMode::L2Stream, 1, 0x2819160e00cf3020ULL, 0xb6c8664f69b8dcc5ULL},
    {"perl", TraceMode::L2Stream, 7, 0x115f33b127aef339ULL, 0xb6c8664f69b8dcc5ULL},
    {"perl", TraceMode::Full, 1, 0xb8ad2cbdde409a66ULL, 0xb6c8664f69b8dcc5ULL},
    {"perl", TraceMode::Full, 7, 0xf98887101c5a4943ULL, 0xb6c8664f69b8dcc5ULL},
    {"h264ref", TraceMode::L2Stream, 1, 0xe8c98b4aa2d19d3bULL, 0x5120b22de145486dULL},
    {"h264ref", TraceMode::L2Stream, 7, 0x88186c681730c5abULL, 0x5120b22de145486dULL},
    {"h264ref", TraceMode::Full, 1, 0x4eb2da5762b79fccULL, 0x5120b22de145486dULL},
    {"h264ref", TraceMode::Full, 7, 0x6248f1d5e2a219c3ULL, 0x5120b22de145486dULL},
    {"gobmk", TraceMode::L2Stream, 1, 0xad0170c47a517192ULL, 0x84694df373cc8d65ULL},
    {"gobmk", TraceMode::L2Stream, 7, 0x70d95ec5c851bd61ULL, 0x84694df373cc8d65ULL},
    {"gobmk", TraceMode::Full, 1, 0x12499d58d4f6c3dcULL, 0x84694df373cc8d65ULL},
    {"gobmk", TraceMode::Full, 7, 0x7e02f88194e81a6cULL, 0x84694df373cc8d65ULL},
    {"sjeng", TraceMode::L2Stream, 1, 0x696b13f2fd310f17ULL, 0x41ac7d565ad57fe5ULL},
    {"sjeng", TraceMode::L2Stream, 7, 0x47afcd43ff622911ULL, 0x41ac7d565ad57fe5ULL},
    {"sjeng", TraceMode::Full, 1, 0xf6d9e365a65d5a4fULL, 0x41ac7d565ad57fe5ULL},
    {"sjeng", TraceMode::Full, 7, 0x956cfe2ca82ac864ULL, 0x41ac7d565ad57fe5ULL},
    {"libquantum", TraceMode::L2Stream, 1, 0x9512b23a2f0802bcULL, 0x41ac7d565ad57fe5ULL},
    {"libquantum", TraceMode::L2Stream, 7, 0x74444b54967fefdbULL, 0x41ac7d565ad57fe5ULL},
    {"libquantum", TraceMode::Full, 1, 0xff8d6258e1c7e81fULL, 0x41ac7d565ad57fe5ULL},
    {"libquantum", TraceMode::Full, 7, 0x879ea1371c9e5d10ULL, 0x41ac7d565ad57fe5ULL},
    {"milc", TraceMode::L2Stream, 1, 0x117372acfc768ab9ULL, 0x675b80b80c141765ULL},
    {"milc", TraceMode::L2Stream, 7, 0x8f941114fab9c6c1ULL, 0x675b80b80c141765ULL},
    {"milc", TraceMode::Full, 1, 0x684bcf5e3f209b96ULL, 0x675b80b80c141765ULL},
    {"milc", TraceMode::Full, 7, 0x56d96c2c8690c7aeULL, 0x675b80b80c141765ULL},
    {"namd", TraceMode::L2Stream, 1, 0xe975925826c11e7dULL, 0x24f2f79408e00865ULL},
    {"namd", TraceMode::L2Stream, 7, 0x029bb363c7ad99dfULL, 0x24f2f79408e00865ULL},
    {"namd", TraceMode::Full, 1, 0x742317d5c5f074bbULL, 0x24f2f79408e00865ULL},
    {"namd", TraceMode::Full, 7, 0xadad544bfdf740e5ULL, 0x24f2f79408e00865ULL},
    {"povray", TraceMode::L2Stream, 1, 0xe4f6b96f6695c9f7ULL, 0x84694df373cc8d65ULL},
    {"povray", TraceMode::L2Stream, 7, 0xb8ba5ce125f8d70bULL, 0x84694df373cc8d65ULL},
    {"povray", TraceMode::Full, 1, 0x78d5e0c68e6ef63cULL, 0x84694df373cc8d65ULL},
    {"povray", TraceMode::Full, 7, 0x5d6e82ed8baa9855ULL, 0x84694df373cc8d65ULL},
};
// clang-format on

/** FNV-1a 64 over the little-endian bytes of the values fed to it. */
class Fnv1a64
{
  public:
    void
    add(std::uint64_t value, unsigned bytes = 8)
    {
        for (unsigned i = 0; i < bytes; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

const char *
modeName(TraceMode mode)
{
    return mode == TraceMode::L2Stream ? "L2Stream" : "Full";
}

class GeneratorGolden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorGolden, StreamAndStandingSetDigests)
{
    const auto &profile = BenchmarkRegistry::get(GetParam());
    int checked = 0;
    for (const StreamGolden &g : kGoldens) {
        if (profile.name != g.benchmark)
            continue;
        ++checked;
        AccessGenerator gen(profile, g.seed, jobAddressBase(1), g.mode);

        Fnv1a64 standing;
        std::uint64_t standing_blocks = 0;
        gen.forEachStandingBlock([&](Addr a) {
            standing.add(a);
            ++standing_blocks;
        });
        const std::uint64_t warm =
            g.mode == TraceMode::L2Stream
                ? profile.l2Profile.maxFiniteDistance()
                : buildFullStreamProfile(profile).maxFiniteDistance();
        EXPECT_EQ(standing_blocks, warm);

        Fnv1a64 stream;
        std::uint64_t emitted = 0;
        while (emitted < kStreamAccesses) {
            gen.run(1000, [&](Addr a, bool w) {
                if (emitted++ < kStreamAccesses) {
                    stream.add(a);
                    stream.add(w ? 1 : 0, 1);
                }
            });
        }

        char row[160];
        std::snprintf(row, sizeof(row),
                      "{\"%s\", TraceMode::%s, %" PRIu64
                      ", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                      g.benchmark, modeName(g.mode), g.seed,
                      stream.value(), standing.value());
        EXPECT_EQ(stream.value(), g.stream) << "actual row: " << row;
        EXPECT_EQ(standing.value(), g.standing) << "actual row: " << row;
    }
    // Two modes by two seeds per benchmark.
    EXPECT_EQ(checked, 4);
}

std::vector<std::string>
allBenchmarks()
{
    std::vector<std::string> names;
    for (const auto &b : BenchmarkRegistry::all())
        names.push_back(b.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, GeneratorGolden, ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        return param_info.param;
    });

} // namespace
} // namespace cmpqos
