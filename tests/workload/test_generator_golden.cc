/**
 * @file
 * Golden digests of the synthetic access streams: for every benchmark
 * profile, trace mode and two seeds, an FNV-1a 64 digest of the first
 * 200k emitted (address, is_write) pairs and of the standing set that
 * forEachStandingBlock() visits right after construction. Any change
 * to the sampler, the profiles or the random stream that moves a
 * single access fails here, naming the case.
 *
 * A second table pins how run() hands the stream out in chunks of 1,
 * 7, 20k and 50k instructions: the pairs and, after every call, how
 * many accesses it emitted. A 20k or 50k chunk emits hundreds to
 * thousands of accesses in either mode, so these cover any batching
 * inside run() as well as its instruction-to-access accounting.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
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

struct ChunkGolden
{
    const char *benchmark;
    TraceMode mode;
    /** One digest per kChunkSizes entry. */
    std::uint64_t digests[4];
};

constexpr InstCount kChunkSizes[] = {1, 7, 20'000, 50'000};
constexpr InstCount kChunkedInstructions = 500'000;
constexpr std::uint64_t kChunkSeed = 3;

// Recorded before run() generated its accesses in batches.
// clang-format off
const ChunkGolden kChunkGoldens[] = {
    {"bzip2", TraceMode::L2Stream, {0x613e9789275d4b0dULL, 0xe5a8dba4b9054e74ULL, 0x6ab1345c6af43e93ULL, 0x056b177867642eb8ULL}},
    {"bzip2", TraceMode::Full, {0xab3451b40115e6ccULL, 0x41591e1abe750895ULL, 0x34c0993c2415a74dULL, 0x1e6e3c04f8c62638ULL}},
    {"mcf", TraceMode::L2Stream, {0x69c87a44a0fad50aULL, 0xbb8ba672960f7beaULL, 0xfa5a4e9f4a4c1302ULL, 0xad753193fcfde73eULL}},
    {"mcf", TraceMode::Full, {0xf3494afc6e74773aULL, 0xcf2af08f351eeaa6ULL, 0xf041e1a1f15837a3ULL, 0xb784ba3e711a869aULL}},
    {"soplex", TraceMode::L2Stream, {0xf616cc2b38e48b22ULL, 0x62be66c5dbf618e2ULL, 0x0f5bc85bf0b1072cULL, 0x90d53e7f961edeb6ULL}},
    {"soplex", TraceMode::Full, {0x3c38b32647a7dd59ULL, 0xe499d70cb2abef63ULL, 0xd593bd4b58732e51ULL, 0xa49fcc037099c4d8ULL}},
    {"sphinx", TraceMode::L2Stream, {0x8ecde1a0d3d56f0fULL, 0x5d83f045d57d1ecfULL, 0x716a6bf1b1bdb08cULL, 0xd66a0b17d1ea60b7ULL}},
    {"sphinx", TraceMode::Full, {0x9499e3004b98c1a0ULL, 0xacaeffaa6c5a7467ULL, 0x70317bafc94409fcULL, 0x1ee08800422f76e5ULL}},
    {"astar", TraceMode::L2Stream, {0x37dd712d818976a2ULL, 0x48de0cbb1d1361d2ULL, 0xcf77c5cf58d4f7edULL, 0x6bc6e0499156aea6ULL}},
    {"astar", TraceMode::Full, {0x8076bc8ca77301d5ULL, 0x71cbcce9941c38b9ULL, 0xd444ed40e95451b2ULL, 0x18bf0ccc73b1af47ULL}},
    {"hmmer", TraceMode::L2Stream, {0x835cafe9ec2a6f87ULL, 0x456ee3ba8f3506afULL, 0x74d5dad47852174fULL, 0x82140010bd31f3bfULL}},
    {"hmmer", TraceMode::Full, {0xba6d3a8221e67a41ULL, 0xc32556e0d4f657ddULL, 0x3a137fe8f422306fULL, 0x60bbc656539acf92ULL}},
    {"gcc", TraceMode::L2Stream, {0x934c5cd4c60365f6ULL, 0x2fdbda0357329ce6ULL, 0x0ef09b9fa83f5572ULL, 0x12f12ea4c2c07416ULL}},
    {"gcc", TraceMode::Full, {0x6bcccf1148ccfa8dULL, 0xe508bcc453b90ca8ULL, 0x39cd2922bf41e8dbULL, 0xbf89835247b631b2ULL}},
    {"perl", TraceMode::L2Stream, {0x6147654979663e9bULL, 0x78ffa15fbc3a7b3bULL, 0xf4ce1c17a5d35f37ULL, 0x7f6b1b0ba88f9373ULL}},
    {"perl", TraceMode::Full, {0x0d65a6ee5d9be7caULL, 0x045e634850c090d0ULL, 0x372e5f0063f45c18ULL, 0x24d805686c6cc535ULL}},
    {"h264ref", TraceMode::L2Stream, {0xbd2f71812829e17cULL, 0x0ca73a5a8d91213cULL, 0x8ee2c06fe0f5da28ULL, 0xeb15fc1e04dcde24ULL}},
    {"h264ref", TraceMode::Full, {0xfb997df7b8eec789ULL, 0x581fa0bf48458f5eULL, 0x45810aa58d2ee30eULL, 0x1d51e45293427ad7ULL}},
    {"gobmk", TraceMode::L2Stream, {0x29f6db48b7de1058ULL, 0x8eda60f82b75b55dULL, 0xc319f9f42582b6e6ULL, 0xdc657a3593d7c87dULL}},
    {"gobmk", TraceMode::Full, {0x34e7d993c9231d91ULL, 0x85a67c7c519eb87aULL, 0xc58139c4ab807dbeULL, 0x3a89b888c8fc9f5fULL}},
    {"sjeng", TraceMode::L2Stream, {0x3f7e3f685e222f55ULL, 0x855681cd91233675ULL, 0x847efa86eb10eb09ULL, 0x39f60011bd4678d9ULL}},
    {"sjeng", TraceMode::Full, {0xe2942a33c5f8d8e5ULL, 0x1fcba3065a635ff8ULL, 0xb7e49411194094beULL, 0x97f172033c9dd173ULL}},
    {"libquantum", TraceMode::L2Stream, {0xa43b624237035c06ULL, 0xb9a153a68e6aad36ULL, 0xdfa621cc0640fcdcULL, 0x0bcb8c495f8be09aULL}},
    {"libquantum", TraceMode::Full, {0xc70ed577baefb6f7ULL, 0x6e54138f026b3ab5ULL, 0x2a99622e82a5e482ULL, 0xb7cf911824fec8afULL}},
    {"milc", TraceMode::L2Stream, {0x111cc98b0d8def55ULL, 0xfdcd20138d4767f5ULL, 0x76748c69c7b6d9faULL, 0x9bb5eb8346f8764dULL}},
    {"milc", TraceMode::Full, {0xe29ae3144aeb8aa9ULL, 0xbfbf40ab3107e9a5ULL, 0xa5bb8ef18609c820ULL, 0x926383ee1cd3e4e9ULL}},
    {"namd", TraceMode::L2Stream, {0xd71abc702e43a6a2ULL, 0x29eced6985c2f3d2ULL, 0x2e0fb254034575d6ULL, 0xfb788b9840d1a12eULL}},
    {"namd", TraceMode::Full, {0x916f534dfe354c57ULL, 0x69a3969136c135f7ULL, 0x91b74a18d4617bfbULL, 0x8008b88d78a22ebeULL}},
    {"povray", TraceMode::L2Stream, {0x90e1fc48db2717e1ULL, 0x1f9a56b3e014f471ULL, 0x153d3288654d638dULL, 0x8930ff5830e394bdULL}},
    {"povray", TraceMode::Full, {0x01d1d5d10826b698ULL, 0xba246e6b0ea89696ULL, 0xfd0b2da7a89a8486ULL, 0x33d1ea5297bbe447ULL}},
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

class GeneratorChunking : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorChunking, DigestsAtEveryChunkSize)
{
    const auto &profile = BenchmarkRegistry::get(GetParam());
    int checked = 0;
    for (const ChunkGolden &g : kChunkGoldens) {
        if (profile.name != g.benchmark)
            continue;
        ++checked;
        std::uint64_t digests[std::size(kChunkSizes)];
        for (std::size_t i = 0; i < std::size(kChunkSizes); ++i) {
            AccessGenerator gen(profile, kChunkSeed, jobAddressBase(2),
                                g.mode);
            Fnv1a64 digest;
            std::uint64_t total = 0;
            for (InstCount done = 0; done < kChunkedInstructions;
                 done += kChunkSizes[i]) {
                std::uint64_t in_call = 0;
                gen.run(kChunkSizes[i], [&](Addr a, bool w) {
                    digest.add(a);
                    digest.add(w ? 1 : 0, 1);
                    ++in_call;
                });
                digest.add(in_call, 4);
                total += in_call;
            }
            EXPECT_EQ(gen.emitted(), total);
            digests[i] = digest.value();
        }

        char row[192];
        std::snprintf(row, sizeof(row),
                      "{\"%s\", TraceMode::%s, {0x%016" PRIx64
                      "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                      "ULL, 0x%016" PRIx64 "ULL}},",
                      g.benchmark, modeName(g.mode), digests[0],
                      digests[1], digests[2], digests[3]);
        for (std::size_t i = 0; i < std::size(kChunkSizes); ++i)
            EXPECT_EQ(digests[i], g.digests[i])
                << "chunk " << kChunkSizes[i] << ", actual row: " << row;
    }
    // Both modes per benchmark.
    EXPECT_EQ(checked, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, GeneratorChunking, ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        return param_info.param;
    });

} // namespace
} // namespace cmpqos
