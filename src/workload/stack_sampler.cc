#include "stack_sampler.hh"

#include <algorithm>
#include <limits>

#include "common/bits.hh"
#include "common/logging.hh"

namespace cmpqos
{

LruStackSampler::LruStackSampler(std::size_t max_live_blocks)
    : maxLive_(max_live_blocks)
{
    cmpqos_assert(max_live_blocks >= 2, "stack needs at least two blocks");
    cmpqos_assert(max_live_blocks <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "live-block cap %zu overflows the 32-bit slot counts",
                  max_live_blocks);
}

std::size_t
LruStackSampler::slotOfRank(std::uint64_t rank) const
{
    // Every word above the open one is empty, so a rank past the
    // tree's total lies in the open word.
    auto k = static_cast<std::uint32_t>(rank);
    const auto closed = static_cast<std::uint32_t>(wordCounts_.total());
    std::size_t word = openWord_;
    if (k > closed)
        k -= closed;
    else
        word = wordCounts_.findKthRank(k);
    return word * 64 + selectBit64(occupied_[word], k - 1);
}

std::size_t
LruStackSampler::takeRank(std::uint64_t rank)
{
    auto k = static_cast<std::uint32_t>(rank);
    const auto closed = static_cast<std::uint32_t>(wordCounts_.total());
    std::size_t word = openWord_;
    if (k > closed)
        k -= closed;
    else
        word = wordCounts_.takeKthRank(k);
    const unsigned bit = selectBit64(occupied_[word], k - 1);
    occupied_[word] &= ~(std::uint64_t{1} << bit);
    return word * 64 + bit;
}

void
LruStackSampler::pushTop(std::uint64_t block)
{
    if (nextSlot_ == slotBlock_.size())
        makeRoom(1);
    const std::size_t slot = nextSlot_++;
    const std::size_t word = slot / 64;
    if (word != openWord_) {
        // The closed word's count joins the tree. The new one leaves it
        // with whatever blocks it already holds after a compaction.
        if (openWord_ != noOpenWord)
            wordCounts_.add(openWord_, popcount64(occupied_[openWord_]));
        wordCounts_.add(word, -std::int64_t{popcount64(occupied_[word])});
        openWord_ = word;
    }
    occupied_[word] |= std::uint64_t{1} << (slot % 64);
    slotBlock_[slot] = block;
}

void
LruStackSampler::vacate(std::size_t slot)
{
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    if (slot / 64 != openWord_)
        wordCounts_.add(slot / 64, -1);
}

void
LruStackSampler::dropLru()
{
    // LRU block = occupant of the lowest occupied slot. Nothing is
    // ever placed below it, so the scan resumes where the last ended.
    while (occupied_[lruWord_] == 0)
        ++lruWord_;
    vacate(lruWord_ * 64 + static_cast<std::size_t>(
                               std::countr_zero(occupied_[lruWord_])));
    --liveCount_;
}

std::uint64_t
LruStackSampler::accessNew()
{
    if (liveCount_ >= maxLive_)
        dropLru();
    const std::uint64_t block = nextBlockId_++;
    pushTop(block);
    ++liveCount_;
    return block;
}

void
LruStackSampler::accessNewBlocks(std::uint64_t count)
{
    // Only the last maxLive_ of the new blocks can stay live; the ones
    // before them would be pushed and dropped again straight away.
    const auto kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(count, maxLive_));
    nextBlockId_ += count - kept;
    while (liveCount_ + kept > maxLive_)
        dropLru();
    if (kept == 0)
        return;
    if (nextSlot_ + kept > slotBlock_.size())
        makeRoom(kept);
    for (std::size_t i = 0; i < kept; ++i)
        slotBlock_[nextSlot_ + i] = nextBlockId_ + i;
    occupy(nextSlot_, nextSlot_ + kept);
    recount();
    nextSlot_ += kept;
    liveCount_ += kept;
    nextBlockId_ += kept;
}

std::uint64_t
LruStackSampler::accessAtDistance(std::uint64_t d)
{
    cmpqos_assert(d >= 1, "stack distance must be >= 1");
    if (d > liveCount_)
        return accessNew();
    // The MRU block always holds the highest used slot, and a d == 1
    // access leaves it there.
    if (d == 1)
        return slotBlock_[nextSlot_ - 1];

    // The d-th most recently used = rank (live - d + 1) from the
    // bottom among occupied slots.
    const std::uint64_t block = slotBlock_[takeRank(liveCount_ - d + 1)];
    pushTop(block);
    return block;
}

std::uint64_t
LruStackSampler::peekAtDistance(std::uint64_t d) const
{
    cmpqos_assert(d >= 1 && d <= liveCount_,
                  "peek distance %llu out of [1,%zu]",
                  static_cast<unsigned long long>(d), liveCount_);
    return slotBlock_[slotOfRank(liveCount_ - d + 1)];
}

void
LruStackSampler::makeRoom(std::size_t count)
{
    compact();
    const std::size_t needed = nextSlot_ + count;
    if (2 * needed > slotBlock_.size()) {
        // Dense: double the larger of the current space and what is
        // needed, up to 4x the cap. A bulk fill (the warm-up) thus
        // gets the headroom its first push would otherwise grow to.
        // needed never exceeds the cap, so the cap-bound space always
        // ends at most a quarter full.
        const std::size_t max_words = (4 * maxLive_ + 63) / 64;
        const std::size_t fit = (needed + 63) / 64;
        const std::size_t words = std::max(
            fit, std::min(2 * std::max(occupied_.size(), fit), max_words));
        occupied_.resize(words, 0);
        slotBlock_.resize(words * 64);
    }
    recount();
}

void
LruStackSampler::compact()
{
    // Gather live blocks in recency order (bottom to top) into the
    // lowest slots. Note: during accessAtDistance the moving block is
    // briefly out of the bitmap, so the occupied slots (not
    // liveCount_) are authoritative here.
    std::size_t to = 0;
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
        for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1)
            slotBlock_[to++] = slotBlock_[w * 64 + static_cast<std::size_t>(
                                                       std::countr_zero(bits))];
    }
    std::fill(occupied_.begin(), occupied_.end(), 0);
    occupy(0, to);
    nextSlot_ = to;
    lruWord_ = 0;
}

void
LruStackSampler::recount()
{
    wordCounts_.assign(occupied_.size(), [this](std::size_t w) {
        return popcount64(occupied_[w]);
    });
    openWord_ = noOpenWord;
}

void
LruStackSampler::occupy(std::size_t from, std::size_t to)
{
    while (from < to) {
        const std::size_t bit = from % 64;
        const std::size_t n = std::min<std::size_t>(64 - bit, to - from);
        const std::uint64_t run =
            n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
        occupied_[from / 64] |= run << bit;
        from += n;
    }
}

} // namespace cmpqos
