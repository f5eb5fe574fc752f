/**
 * @file
 * Unit tests for the base set-associative cache (private L1 model).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"

namespace cmpqos
{
namespace
{

CacheConfig
tinyConfig()
{
    CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = 4 * 64 * 4; // 4 sets x 4 ways x 64B
    c.assoc = 4;
    c.blockSize = 64;
    c.hitLatency = 1;
    return c;
}

TEST(SetAssocCache, Geometry)
{
    SetAssocCache c(CacheConfig::l1Default());
    EXPECT_EQ(c.config().numSets(), 128u);
    EXPECT_EQ(c.config().numBlocks(), 512u);
    EXPECT_EQ(c.config().wayBytes(), 8192u);
}

TEST(SetAssocCache, ColdMissThenHit)
{
    SetAssocCache c(tinyConfig());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1010, false).hit); // same block
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache c(tinyConfig()); // 4 sets, 4 ways
    // Five blocks mapping to set 0: block addresses 0,4,8,12,16.
    for (Addr b : {0, 4, 8, 12})
        c.access(b * 64, false);
    // Touch block 0 so block 4 becomes LRU.
    c.access(0, false);
    auto r = c.access(16 * 64, false); // evicts block 4
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victimAddr, 4u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(4 * 64));
}

TEST(SetAssocCache, WritebackOnDirtyEviction)
{
    SetAssocCache c(tinyConfig());
    c.access(0, true); // dirty
    for (Addr b : {4, 8, 12})
        c.access(b * 64, false);
    auto r = c.access(16 * 64, false); // evicts dirty block 0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SetAssocCache, CleanEvictionNoWriteback)
{
    SetAssocCache c(tinyConfig());
    for (Addr b : {0, 4, 8, 12, 16})
        c.access(b * 64, false);
    EXPECT_EQ(c.writebacks(), 0u);
}

TEST(SetAssocCache, WriteHitSetsDirty)
{
    SetAssocCache c(tinyConfig());
    c.access(0, false);
    c.access(0, true); // dirty via hit
    for (Addr b : {4, 8, 12})
        c.access(b * 64, false);
    auto r = c.access(16 * 64, false);
    EXPECT_TRUE(r.writeback);
}

TEST(SetAssocCache, InvalidateRemovesBlock)
{
    SetAssocCache c(tinyConfig());
    c.access(0x40, false);
    EXPECT_TRUE(c.contains(0x40));
    c.invalidate(0x40);
    EXPECT_FALSE(c.contains(0x40));
}

TEST(SetAssocCache, FlushEmptiesCache)
{
    SetAssocCache c(tinyConfig());
    for (Addr a = 0; a < 16 * 64; a += 64)
        c.access(a, false);
    EXPECT_GT(c.validBlocks(), 0u);
    c.flush();
    EXPECT_EQ(c.validBlocks(), 0u);
}

TEST(SetAssocCache, MissRateAndResetStats)
{
    SetAssocCache c(tinyConfig());
    c.access(0, false);
    c.access(0, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.0);
    EXPECT_TRUE(c.contains(0)); // contents untouched
}

TEST(SetAssocCache, SetsAreIndependent)
{
    SetAssocCache c(tinyConfig());
    // Fill set 0 beyond capacity; set 1 resident block must survive.
    c.access(1 * 64, false); // set 1
    for (Addr b : {0, 4, 8, 12, 16, 20})
        c.access(b * 64, false); // all set 0
    EXPECT_TRUE(c.contains(1 * 64));
}

TEST(SetAssocCache, WorkingSetWithinCapacityHasNoConflictMisses)
{
    SetAssocCache c(tinyConfig()); // 16 blocks total
    for (int round = 0; round < 8; ++round)
        for (Addr b = 0; b < 16; ++b)
            c.access(b * 64, false);
    // 16 cold misses only.
    EXPECT_EQ(c.misses(), 16u);
}

TEST(TagStore, DigestCollisionsResolveOnFullTag)
{
    // Block addresses of set 5 of a 16-set array sharing one digest.
    const std::uint64_t sets = 16, set = 5;
    std::vector<Addr> same{set};
    for (Addr block = set + sets; same.size() < 3; block += sets)
        if (TagStore::digest(block) == TagStore::digest(set))
            same.push_back(block);
    TagStore tags(sets, 16, 1);
    AccessResult r;
    tags.fill(set, tags.lruVictim(set), same[0], 0, false, r);
    tags.fill(set, tags.lruVictim(set), same[1], 0, false, r);
    EXPECT_EQ(tags.find(set, same[0]), 0);
    EXPECT_EQ(tags.find(set, same[1]), 1);
    EXPECT_EQ(tags.find(set, same[2]), -1); // never filled
    tags.invalidate(set, 0);
    EXPECT_EQ(tags.find(set, same[0]), -1);
    EXPECT_EQ(tags.find(set, same[1]), 1);
    EXPECT_EQ(tags.find(set, same[2]), -1);
    EXPECT_EQ(tags.occupancy(set), 1u);
}

TEST(CacheConfigDeathTest, BadGeometryIsFatal)
{
    CacheConfig c;
    c.blockSize = 48; // not a power of two
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "block size");
}

TEST(CacheConfigDeathTest, AssocWiderThanWayMaskIsFatal)
{
    CacheConfig c;
    c.assoc = 64; // the widest a way mask holds
    c.sizeBytes = 4 * 64 * 64;
    c.validate();
    c.assoc = 128;
    c.sizeBytes = 4 * 128 * 64;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "associativity 128 exceeds the 64-way limit");
}

} // namespace
} // namespace cmpqos
