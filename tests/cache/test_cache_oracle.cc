/**
 * @file
 * Lockstep oracle for the tag arrays: the production L1, partitioned
 * L2 and duplicate tags run side by side with the stamped reference
 * models of reference_caches.hh over seeded random streams, and every
 * observable result is compared after every step. About every 100k
 * accesses the stream changes the partitioning under the caches:
 * retargets, class changes, releases and flushes, plus a saturated
 * phase whose reserved targets sum to the associativity, so
 * Opportunistic misses reach the per-set fallback.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "cache/cache.hh"
#include "cache/duplicate_tags.hh"
#include "cache/partitioned_cache.hh"
#include "common/random.hh"
#include "reference_caches.hh"

namespace cmpqos
{
namespace
{

CacheConfig
geometry(std::uint64_t sets, unsigned ways)
{
    CacheConfig c;
    c.name = "oracle";
    c.assoc = ways;
    c.blockSize = 64;
    c.sizeBytes = sets * ways * 64;
    return c;
}

/** Accesses between two control events: about 100k. */
std::uint64_t
nextEventGap(Rng &rng)
{
    return 50'000 + rng.uniformInt(100'001);
}

std::string
diffResult(const AccessResult &got, const AccessResult &want)
{
    if (got.hit == want.hit && got.evicted == want.evicted &&
        got.writeback == want.writeback &&
        (!want.evicted || got.victimAddr == want.victimAddr))
        return {};
    std::ostringstream os;
    os << "result hit/evicted/writeback/victim " << got.hit << '/'
       << got.evicted << '/' << got.writeback << '/' << got.victimAddr
       << ", reference " << want.hit << '/' << want.evicted << '/'
       << want.writeback << '/' << want.victimAddr;
    return os.str();
}

/** A block address from a hot range, a cold range or a shared one. */
Addr
pickAddr(Rng &rng, Addr base, std::uint64_t hot, std::uint64_t cold)
{
    const double u = rng.uniform();
    std::uint64_t block;
    if (u < 0.1)
        return (rng.uniformInt(hot) << 6) | (Addr{1} << 40); // shared
    block = u < 0.65 ? rng.uniformInt(hot) : rng.uniformInt(cold);
    return base + (block << 6);
}

// ---------------------------------------------------------------- L2

/** Production and reference L2 driven through the same calls. */
struct L2Pair
{
    L2Pair(const CacheConfig &cfg, int num_cores, PartitionScheme scheme)
        : cores(num_cores), sets(cfg.numSets()), assoc(cfg.assoc),
          dut(cfg, num_cores, scheme), ref(cfg, num_cores, scheme)
    {
    }

    void
    setTarget(CoreId c, unsigned ways)
    {
        dut.setTargetWays(c, ways);
        ref.setTargetWays(c, ways);
    }
    void
    setClass(CoreId c, CoreClass cls)
    {
        dut.setCoreClass(c, cls);
        ref.setCoreClass(c, cls);
    }
    void
    release(CoreId c)
    {
        dut.releaseCore(c);
        ref.releaseCore(c);
    }
    void
    flush()
    {
        dut.flush();
        ref.flush();
    }

    /** Ways @p c may hold as a Reserved core next to the others. */
    unsigned
    budget(CoreId c) const
    {
        const WayAllocationTable &a = ref.allocation();
        unsigned others = 0;
        for (int i = 0; i < cores; ++i)
            if (i != c && a.coreClass(i) == CoreClass::Reserved)
                others += a.target(i);
        return assoc - others;
    }

    std::string
    compareCore(CoreId c) const
    {
        const CoreCacheStats &g = dut.coreStats(c);
        const CoreCacheStats &w = ref.coreStats(c);
        if (g.accesses != w.accesses || g.misses != w.misses ||
            g.writebacks != w.writebacks ||
            g.interferenceEvictions != w.interferenceEvictions)
            return "core " + std::to_string(c) + " stats differ";
        if (dut.blocksOwnedBy(c) != ref.blocksOwnedBy(c))
            return "core " + std::to_string(c) + " owns " +
                   std::to_string(dut.blocksOwnedBy(c)) +
                   " blocks, reference " +
                   std::to_string(ref.blocksOwnedBy(c));
        return {};
    }

    std::string
    compareSet(std::uint64_t s) const
    {
        for (int c = 0; c < cores; ++c)
            if (dut.blocksInSet(s, c) != ref.blocksInSet(s, c))
                return "set " + std::to_string(s) + " core " +
                       std::to_string(c) + " holds " +
                       std::to_string(dut.blocksInSet(s, c)) +
                       ", reference " +
                       std::to_string(ref.blocksInSet(s, c));
        return {};
    }

    std::string
    compareAll() const
    {
        for (int c = 0; c < cores; ++c)
            if (auto d = compareCore(c); !d.empty())
                return d;
        for (std::uint64_t s = 0; s < sets; ++s)
            if (auto d = compareSet(s); !d.empty())
                return d;
        return {};
    }

    std::string
    access(CoreId core, Addr addr, bool is_write)
    {
        const AccessResult got = dut.access(core, addr, is_write);
        const AccessResult want = ref.access(core, addr, is_write);
        if (auto d = diffResult(got, want); !d.empty())
            return d;
        for (int c = 0; c < cores; ++c)
            if (auto d = compareCore(c); !d.empty())
                return d;
        const std::uint64_t set = (addr >> 6) & (sets - 1);
        if (auto d = compareSet(set); !d.empty())
            return d;
        if (dut.contains(addr) != ref.contains(addr))
            return "contains() differs after an access";
        return {};
    }

    int cores;
    std::uint64_t sets;
    unsigned assoc;
    PartitionedCache dut;
    ref::PartitionedCache ref;
};

/** One random control action on the partitioning. */
void
randomControl(L2Pair &p, Rng &rng)
{
    const CoreId c = static_cast<CoreId>(
        rng.uniformInt(static_cast<std::uint64_t>(p.cores)));
    switch (rng.uniformInt(9)) {
      case 0:
      case 1:
      case 2: // retarget within the reserved budget
        p.setTarget(c, static_cast<unsigned>(
                           rng.uniformInt(p.budget(c) + 1ULL)));
        break;
      case 3:
      case 4:
      case 5: { // class change
        const auto cls = static_cast<CoreClass>(rng.uniformInt(3));
        if (cls == CoreClass::Reserved)
            p.setTarget(c, static_cast<unsigned>(
                               rng.uniformInt(p.budget(c) + 1ULL)));
        p.setClass(c, cls);
        break;
      }
      case 6:
      case 7:
        p.release(c);
        break;
      default:
        p.flush();
        break;
    }
}

/**
 * Reserved targets summing to the associativity over cores 0 and 1,
 * everyone else Opportunistic: the pool has no ways.
 */
void
saturate(L2Pair &p, Rng &rng)
{
    for (int c = 0; c < p.cores; ++c)
        p.setClass(c, CoreClass::Opportunistic);
    const unsigned first =
        1 + static_cast<unsigned>(rng.uniformInt(p.assoc - 1));
    p.setTarget(0, first);
    p.setClass(0, CoreClass::Reserved);
    p.setTarget(1, p.assoc - first);
    p.setClass(1, CoreClass::Reserved);
}

using L2Param = std::tuple<PartitionScheme, std::uint64_t, unsigned, int>;

class PartitionedCacheOracle : public ::testing::TestWithParam<L2Param>
{
};

TEST_P(PartitionedCacheOracle, LockstepWithReference)
{
    const auto [scheme, sets, ways, cores] = GetParam();
    L2Pair p(geometry(sets, ways), cores, scheme);
    Rng rng(0xC0FFEE + sets * ways + static_cast<std::uint64_t>(scheme));
    const std::uint64_t blocks = sets * ways;
    const std::uint64_t steps = 1'200'000;

    // Start with one Reserved and one Opportunistic core.
    p.setTarget(0, ways / 2);
    p.setClass(0, CoreClass::Reserved);
    p.setClass(1, CoreClass::Opportunistic);

    std::uint64_t next_event = nextEventGap(rng);
    std::uint64_t events = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        if (i == next_event) {
            ++events;
            if (events % 4 == 2) {
                saturate(p, rng);
            } else {
                const std::uint64_t n = 1 + rng.uniformInt(3);
                for (std::uint64_t k = 0; k < n; ++k)
                    randomControl(p, rng);
            }
            next_event += nextEventGap(rng);
            const std::string d = p.compareAll();
            ASSERT_TRUE(d.empty()) << "after event " << events << ": " << d;
        }
        const CoreId core = static_cast<CoreId>(
            rng.uniformInt(static_cast<std::uint64_t>(cores)));
        const Addr base = static_cast<Addr>(core + 1) << 32;
        const Addr addr = pickAddr(rng, base, blocks / 5, blocks * 4);
        const bool is_write = rng.uniform() < 0.3;
        const std::string d = p.access(core, addr, is_write);
        ASSERT_TRUE(d.empty()) << "access " << i << " (core " << core
                               << ", addr 0x" << std::hex << addr
                               << std::dec << "): " << d;
    }
    EXPECT_TRUE(p.compareAll().empty());
    EXPECT_GE(events, 8u);

    // The stream reached every victim rule its scheme has.
    const ref::RuleCounts &r = p.ref.rules();
    EXPECT_GT(r.empty, 0u);
    EXPECT_GT(r.own, 0u);
    if (scheme != PartitionScheme::None) {
        EXPECT_GT(r.orphan, 0u);
        EXPECT_GT(r.overTarget, 0u);
        EXPECT_GT(r.fallback, 0u);
    }
    if (scheme == PartitionScheme::PerSet) {
        EXPECT_GT(r.pool, 0u);
    }
}

std::string
l2ParamName(const ::testing::TestParamInfo<L2Param> &info)
{
    const auto [scheme, sets, ways, cores] = info.param;
    return std::string(partitionSchemeName(scheme)) + "_" +
           std::to_string(sets) + "x" + std::to_string(ways) + "_" +
           std::to_string(cores) + "cores";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitionedCacheOracle,
    ::testing::Values(
        L2Param{PartitionScheme::None, 128, 16, 4},
        L2Param{PartitionScheme::Global, 128, 16, 4},
        L2Param{PartitionScheme::PerSet, 128, 16, 4},
        L2Param{PartitionScheme::PerSet, 16, 64, 3},
        L2Param{PartitionScheme::Global, 16, 64, 3},
        L2Param{PartitionScheme::None, 32, 17, 4},
        L2Param{PartitionScheme::Global, 32, 17, 4},
        L2Param{PartitionScheme::PerSet, 32, 17, 4},
        L2Param{PartitionScheme::None, 16, 48, 3},
        L2Param{PartitionScheme::Global, 16, 48, 3},
        L2Param{PartitionScheme::PerSet, 16, 48, 3}),
    l2ParamName);

// ---------------------------------------------------------------- L1

class SetAssocCacheOracle
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(SetAssocCacheOracle, LockstepWithReference)
{
    const auto [sets, ways] = GetParam();
    const CacheConfig cfg = geometry(sets, ways);
    SetAssocCache dut(cfg);
    ref::SetAssocCache ref(cfg);
    Rng rng(0xBEEF + sets * ways);
    const std::uint64_t blocks = sets * ways;
    std::uint64_t next_flush = nextEventGap(rng);
    Addr last = 0;
    for (std::uint64_t i = 0; i < 600'000; ++i) {
        if (i == next_flush) {
            dut.flush();
            ref.flush();
            next_flush += nextEventGap(rng);
        }
        const double u = rng.uniform();
        if (u < 0.02) {
            // Invalidate a recent block, or one that may be absent.
            const Addr victim =
                u < 0.01 ? last : pickAddr(rng, 0, blocks, blocks * 3);
            dut.invalidate(victim);
            ref.invalidate(victim);
            ASSERT_EQ(dut.contains(victim), ref.contains(victim));
            continue;
        }
        last = pickAddr(rng, 0, blocks / 2, blocks * 3);
        const bool is_write = rng.uniform() < 0.3;
        const std::string d =
            diffResult(dut.access(last, is_write), ref.access(last, is_write));
        ASSERT_TRUE(d.empty()) << "access " << i << ": " << d;
        ASSERT_EQ(dut.misses(), ref.misses()) << "access " << i;
        ASSERT_EQ(dut.writebacks(), ref.writebacks()) << "access " << i;
        if (i % 4096 == 0) {
            ASSERT_EQ(dut.validBlocks(), ref.validBlocks()) << "access " << i;
        }
    }
    EXPECT_EQ(dut.accesses(), ref.accesses());
    EXPECT_EQ(dut.validBlocks(), ref.validBlocks());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocCacheOracle,
    ::testing::Values(std::tuple<std::uint64_t, unsigned>{128, 4},
                      std::tuple<std::uint64_t, unsigned>{16, 64},
                      std::tuple<std::uint64_t, unsigned>{256, 1},
                      std::tuple<std::uint64_t, unsigned>{8, 17},
                      std::tuple<std::uint64_t, unsigned>{8, 33},
                      std::tuple<std::uint64_t, unsigned>{4, 63}),
    [](const auto &param_info) {
        return std::to_string(std::get<0>(param_info.param)) + "x" +
               std::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------------ duplicate tags

class DuplicateTagOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(DuplicateTagOracle, LockstepWithReference)
{
    const auto [baseline, period] = GetParam();
    const CacheConfig l2 = geometry(256, 16);
    DuplicateTagArray dut(l2, baseline, period);
    ref::DuplicateTagArray ref(l2, baseline, period);
    Rng rng(0xD0D0 + baseline * 31 + period);
    std::uint64_t next_reset = nextEventGap(rng);
    for (std::uint64_t i = 0; i < 400'000; ++i) {
        if (i == next_reset) {
            dut.reset();
            ref.reset();
            next_reset += nextEventGap(rng);
        }
        const Addr addr = pickAddr(rng, 0, 256 * baseline, 256 * 48);
        const bool main_hit = rng.uniform() < 0.5;
        ASSERT_EQ(dut.observe(addr, main_hit), ref.observe(addr, main_hit))
            << "access " << i;
        ASSERT_EQ(dut.shadowMisses(), ref.shadowMisses()) << "access " << i;
        ASSERT_EQ(dut.mainMisses(), ref.mainMisses()) << "access " << i;
        ASSERT_EQ(dut.sampledAccesses(), ref.sampledAccesses())
            << "access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DuplicateTagOracle,
    ::testing::Values(std::tuple<unsigned, unsigned>{7, 8},
                      std::tuple<unsigned, unsigned>{16, 1},
                      std::tuple<unsigned, unsigned>{1, 8}),
    [](const auto &param_info) {
        return std::to_string(std::get<0>(param_info.param)) + "ways_every" +
               std::to_string(std::get<1>(param_info.param));
    });

} // namespace
} // namespace cmpqos
