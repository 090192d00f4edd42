/**
 * @file
 * Unit and property tests for the hardware taint-storage models: the
 * Figure 6 range cache (capacity, PID tags, coalescing, eviction
 * policies, splits) and the fixed-granularity word store.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/taint_storage.hh"
#include "reference_taint_storage.hh"
#include "support/rng.hh"

using namespace pift;
using core::EvictPolicy;
using core::IdealRangeStore;
using core::TaintStorage;
using core::TaintStorageParams;
using core::WordTaintStorage;
using taint::AddrRange;

namespace
{

TaintStorageParams
params(size_t entries, EvictPolicy policy = EvictPolicy::LruSpill)
{
    TaintStorageParams p;
    p.entries = entries;
    p.policy = policy;
    return p;
}

} // namespace

TEST(TaintStorage, InsertAndQuery)
{
    TaintStorage st(params(8));
    EXPECT_TRUE(st.insert(1, AddrRange(0x100, 0x1ff)));
    EXPECT_TRUE(st.query(1, AddrRange(0x180, 0x180)));
    EXPECT_FALSE(st.query(1, AddrRange(0x200, 0x210)));
    EXPECT_EQ(st.bytes(), 0x100u);
    EXPECT_EQ(st.validEntries(), 1u);
}

TEST(TaintStorage, PidTagsSeparateProcesses)
{
    // Figure 6: a lookup hits only when the process id matches.
    TaintStorage st(params(8));
    st.insert(14, AddrRange(0x3f8510b4, 0x3f8510bb));
    EXPECT_TRUE(st.query(14, AddrRange(0x3f8510b4, 0x3f8510b4)));
    EXPECT_FALSE(st.query(201, AddrRange(0x3f8510b4, 0x3f8510b4)));
}

TEST(TaintStorage, CoalescesSamePidRanges)
{
    TaintStorage st(params(8));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x110, 0x11f)); // adjacent
    st.insert(1, AddrRange(0x118, 0x130)); // overlapping
    EXPECT_EQ(st.validEntries(), 1u);
    EXPECT_EQ(st.bytes(), 0x31u);
}

TEST(TaintStorage, CoalesceRespectsPid)
{
    TaintStorage st(params(8));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(2, AddrRange(0x110, 0x11f));
    EXPECT_EQ(st.validEntries(), 2u);
}

TEST(TaintStorage, InsertChangeDetection)
{
    TaintStorage st(params(8));
    EXPECT_TRUE(st.insert(1, AddrRange(0x100, 0x1ff)));
    EXPECT_FALSE(st.insert(1, AddrRange(0x120, 0x130)));
    EXPECT_TRUE(st.insert(1, AddrRange(0x1f0, 0x20f)));
}

TEST(TaintStorage, RemoveShrinksAndSplits)
{
    TaintStorage st(params(8));
    st.insert(1, AddrRange(0x100, 0x1ff));
    EXPECT_TRUE(st.remove(1, AddrRange(0x140, 0x14f)));
    EXPECT_EQ(st.validEntries(), 2u);
    EXPECT_FALSE(st.query(1, AddrRange(0x140, 0x14f)));
    EXPECT_TRUE(st.query(1, AddrRange(0x13f, 0x13f)));
    EXPECT_TRUE(st.query(1, AddrRange(0x150, 0x150)));

    EXPECT_TRUE(st.remove(1, AddrRange(0x000, 0x2ff)));
    EXPECT_EQ(st.validEntries(), 0u);
    EXPECT_EQ(st.bytes(), 0u);
}

TEST(TaintStorage, LruSpillKeepsTaintExact)
{
    // Eviction to secondary storage: no taint is lost, just slower
    // (the paper's 'cache miss' analogy).
    TaintStorage st(params(2, EvictPolicy::LruSpill));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    st.insert(1, AddrRange(0x500, 0x50f)); // evicts the LRU entry
    EXPECT_EQ(st.stats().evictions, 1u);
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x100)));
    EXPECT_GT(st.stats().spill_hits, 0u);
    EXPECT_TRUE(st.query(1, AddrRange(0x300, 0x300)));
    EXPECT_TRUE(st.query(1, AddrRange(0x500, 0x500)));
    EXPECT_EQ(st.spilledRanges(), 1u);
}

TEST(TaintStorage, LruDropLosesTaint)
{
    // Dropping avoids the miss delay but may cause false negatives
    // (Section 3.3).
    TaintStorage st(params(2, EvictPolicy::LruDrop));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    st.insert(1, AddrRange(0x500, 0x50f));
    EXPECT_FALSE(st.query(1, AddrRange(0x100, 0x100)));
    EXPECT_TRUE(st.query(1, AddrRange(0x500, 0x500)));
    EXPECT_EQ(st.stats().dropped, 1u);
}

TEST(TaintStorage, DropNewRefusesInsertion)
{
    TaintStorage st(params(2, EvictPolicy::DropNew));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    EXPECT_FALSE(st.insert(1, AddrRange(0x500, 0x50f)));
    EXPECT_FALSE(st.query(1, AddrRange(0x500, 0x500)));
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x100)));
}

TEST(TaintStorage, LruVictimSelection)
{
    TaintStorage st(params(2, EvictPolicy::LruDrop));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    // Touch the first entry so the second becomes LRU.
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x100)));
    st.insert(1, AddrRange(0x500, 0x50f));
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x100)));
    EXPECT_FALSE(st.query(1, AddrRange(0x300, 0x300)));
}

TEST(TaintStorage, StatsCountOperations)
{
    TaintStorage st(params(4));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.query(1, AddrRange(0x100, 0x100));
    st.query(1, AddrRange(0x900, 0x900));
    st.remove(1, AddrRange(0x100, 0x10f));
    EXPECT_EQ(st.stats().inserts, 1u);
    EXPECT_EQ(st.stats().lookups, 2u);
    EXPECT_EQ(st.stats().lookup_hits, 1u);
    EXPECT_EQ(st.stats().removes, 1u);
    EXPECT_EQ(st.stats().max_entries_used, 1u);
}

TEST(TaintStorage, Paper32KiBSizing)
{
    // Section 3.3: 12 bytes per PID-tagged entry -> ~2730 entries in
    // 32 KiB; 8 bytes untagged -> 4096.
    EXPECT_EQ((32 * 1024) / 12, 2730);
    EXPECT_EQ((32 * 1024) / 8, 4096);
    TaintStorage st(params(2730));
    for (uint32_t i = 0; i < 2730; ++i)
        st.insert(1, AddrRange(i * 0x100, i * 0x100 + 4));
    EXPECT_EQ(st.validEntries(), 2730u);
    EXPECT_EQ(st.stats().evictions, 0u);
}

TEST(TaintStorage, LruDropSetsSaturationOnVictim)
{
    TaintStorage st(params(2, EvictPolicy::LruDrop));
    st.insert(1, AddrRange(0x100, 0x10f));
    EXPECT_FALSE(st.saturated(1)); // nothing lost yet
    st.insert(2, AddrRange(0x300, 0x30f));
    st.insert(2, AddrRange(0x500, 0x50f)); // drops pid 1's entry
    EXPECT_TRUE(st.saturated(1));
    EXPECT_FALSE(st.saturated(2)); // pid 2 lost nothing
    EXPECT_EQ(st.stats().saturation_events, 1u);
}

TEST(TaintStorage, DropNewSetsSaturationOnRefusedPid)
{
    TaintStorage st(params(2, EvictPolicy::DropNew));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    EXPECT_FALSE(st.saturated(1));
    EXPECT_FALSE(st.insert(2, AddrRange(0x500, 0x50f)));
    EXPECT_TRUE(st.saturated(2)); // the refused process lost taint
    EXPECT_FALSE(st.saturated(1)); // resident entries intact
    EXPECT_EQ(st.stats().saturation_events, 1u);
}

TEST(TaintStorage, LruSpillNeverSaturates)
{
    TaintStorage st(params(2, EvictPolicy::LruSpill));
    for (uint32_t i = 0; i < 32; ++i)
        st.insert(1, AddrRange(i * 0x100, i * 0x100 + 4));
    EXPECT_GT(st.stats().evictions, 0u);
    EXPECT_FALSE(st.saturated(1)); // spilled, not lost
    EXPECT_EQ(st.stats().saturation_events, 0u);
}

TEST(TaintStorage, SaturationClearsWithStateAndOnDemand)
{
    TaintStorage st(params(1, EvictPolicy::LruDrop));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    ASSERT_TRUE(st.saturated(1));
    st.clearSaturation();
    EXPECT_FALSE(st.saturated(1));

    st.insert(1, AddrRange(0x500, 0x50f));
    ASSERT_TRUE(st.saturated(1));
    st.clear();
    EXPECT_FALSE(st.saturated(1));
}

TEST(TaintStorage, SpillReinsertDoesNotDoubleCount)
{
    // Re-inserting a range that earlier spilled to secondary storage
    // must re-absorb the spilled copy: the taint exists once, so
    // bytes()/rangeCount() count it once.
    TaintStorage st(params(2, EvictPolicy::LruSpill));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    st.insert(1, AddrRange(0x500, 0x50f)); // spills [0x100, 0x10f]
    ASSERT_EQ(st.spilledRanges(), 1u);
    ASSERT_EQ(st.bytes(), 48u);

    // The re-insert spills [0x300, 0x30f] and must pull the original
    // [0x100, 0x10f] copy back out of the spill set.
    st.insert(1, AddrRange(0x100, 0x10f));
    EXPECT_EQ(st.bytes(), 48u);
    EXPECT_EQ(st.rangeCount(), 3u);
    EXPECT_EQ(st.spilledRanges(), 1u);
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x100)));
    EXPECT_TRUE(st.query(1, AddrRange(0x300, 0x300)));
    EXPECT_TRUE(st.query(1, AddrRange(0x500, 0x500)));
}

TEST(TaintStorage, SpillReinsertReportsNoNewBytes)
{
    // insert() returns whether the range covered any byte that was
    // not already tainted — and a spilled byte IS still tainted, just
    // slower to reach.
    TaintStorage st(params(2, EvictPolicy::LruSpill));
    st.insert(1, AddrRange(0x100, 0x10f));
    st.insert(1, AddrRange(0x300, 0x30f));
    st.insert(1, AddrRange(0x500, 0x50f)); // spills [0x100, 0x10f]
    ASSERT_EQ(st.spilledRanges(), 1u);
    EXPECT_FALSE(st.insert(1, AddrRange(0x100, 0x10f)));
    EXPECT_EQ(st.bytes(), 48u);
}

TEST(TaintStorage, RemoveSplitCountsDropOnce)
{
    // A mid-range remove on a full DropNew cache cannot allocate the
    // right-hand fragment: exactly one drop, flagged as saturation.
    TaintStorage st(params(1, EvictPolicy::DropNew));
    st.insert(1, AddrRange(0x100, 0x1ff));
    EXPECT_TRUE(st.remove(1, AddrRange(0x140, 0x14f)));
    EXPECT_EQ(st.stats().dropped, 1u);
    EXPECT_EQ(st.stats().saturation_events, 1u);
    EXPECT_TRUE(st.saturated(1));
    // The left fragment survives in place; the right one was lost.
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x13f)));
    EXPECT_FALSE(st.query(1, AddrRange(0x150, 0x150)));
}

TEST(TaintStorage, RemoveSplitRefreshesMaxEntries)
{
    // The split path allocates an entry; the high-water mark must see
    // it even though no insert() ran.
    TaintStorage st(params(4));
    st.insert(1, AddrRange(0x100, 0x1ff));
    ASSERT_EQ(st.stats().max_entries_used, 1u);
    EXPECT_TRUE(st.remove(1, AddrRange(0x140, 0x14f)));
    EXPECT_EQ(st.validEntries(), 2u);
    EXPECT_EQ(st.stats().max_entries_used, 2u);
}

TEST(TaintStorage, RestoreReproducesMultiHitStamps)
{
    // A query hitting several entries stamps them in ascending prior
    // last_use — the order exportState() carries — so a restored
    // storage touches, and later evicts, exactly like the live one.
    TaintStorage live(params(4));
    live.insert(1, AddrRange(0, 9));
    live.insert(1, AddrRange(20, 29));
    live.query(1, AddrRange(0, 0));
    TaintStorage restored(params(4));
    restored.restoreState(live.exportState());

    for (TaintStorage *st : {&live, &restored}) {
        ASSERT_TRUE(st->query(1, AddrRange(5, 25)));
        const auto state = st->exportState();
        ASSERT_EQ(state.entries.size(), 2u);
        EXPECT_EQ(state.entries[0].range, AddrRange(20, 29));
        EXPECT_EQ(state.entries[0].last_use, 4u);
        EXPECT_EQ(state.entries[1].range, AddrRange(0, 9));
        EXPECT_EQ(state.entries[1].last_use, 5u);
        // Fill the cache: the third new range spills the LRU entry.
        for (Addr base : {100u, 200u, 300u})
            st->insert(1, AddrRange(base, base + 9));
        const auto after = st->exportState();
        ASSERT_EQ(after.spills.size(), 1u);
        EXPECT_EQ(after.spills[0].second,
                  std::vector<AddrRange>{AddrRange(20, 29)});
    }
    EXPECT_TRUE(live.exportState() == restored.exportState());
}

class SpillDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SpillDifferential, TinySpillCacheMatchesIdealStore)
{
    // The LruSpill policy is exact by construction: whatever the
    // cache cannot hold lives in secondary storage, and a byte is
    // never in both at once. Drive a tiny cache hard enough that it
    // spills constantly and check it stays equivalent to the
    // unbounded reference — same answers AND same accounting — after
    // every single operation.
    Rng rng(GetParam());
    TaintStorage hw(params(4, EvictPolicy::LruSpill));
    IdealRangeStore ideal;

    for (int step = 0; step < 4000; ++step) {
        ProcId pid = 1 + static_cast<ProcId>(rng.below(3));
        Addr start = 0x1000 + static_cast<Addr>(rng.below(1024));
        Addr len = 1 + static_cast<Addr>(rng.below(32));
        AddrRange r = AddrRange::fromSize(start, len);
        switch (rng.below(4)) {
          case 0:
          case 1:
            ASSERT_EQ(hw.insert(pid, r), ideal.insert(pid, r))
                << "step " << step;
            break;
          case 2:
            ASSERT_EQ(hw.remove(pid, r), ideal.remove(pid, r))
                << "step " << step;
            break;
          default:
            ASSERT_EQ(hw.query(pid, r), ideal.query(pid, r))
                << "step " << step;
            break;
        }
        ASSERT_EQ(hw.bytes(), ideal.bytes()) << "step " << step;
    }
    // The stream must actually have exercised the spill machinery.
    EXPECT_GT(hw.stats().evictions, 0u);
    EXPECT_EQ(hw.stats().saturation_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferential,
                         ::testing::Values(7, 19, 41, 73));

class TinyLossyStorage
    : public ::testing::TestWithParam<std::tuple<EvictPolicy, uint64_t>>
{};

TEST_P(TinyLossyStorage, NeverFalsePositiveAndSaturationIsExact)
{
    // Section 3.3: a saturated cache under a lossy policy may forget
    // taint (false negatives) but must never invent it. Also: the
    // saturation flag must be set exactly when a process actually
    // lost a range — a pid that never lost anything stays exact, so
    // its negatives stay trustworthy.
    auto [policy, seed] = GetParam();
    Rng rng(seed);
    TaintStorage hw(params(3, policy));
    IdealRangeStore ideal;

    for (int step = 0; step < 3000; ++step) {
        ProcId pid = 1 + static_cast<ProcId>(rng.below(3));
        Addr start = 0x1000 + static_cast<Addr>(rng.below(768));
        Addr len = 1 + static_cast<Addr>(rng.below(24));
        AddrRange r = AddrRange::fromSize(start, len);
        switch (rng.below(4)) {
          case 0:
          case 1:
            hw.insert(pid, r);
            ideal.insert(pid, r);
            break;
          case 2:
            hw.remove(pid, r);
            ideal.remove(pid, r);
            break;
          default:
            if (hw.query(pid, r)) {
                // Never a false positive, saturated or not.
                ASSERT_TRUE(ideal.query(pid, r)) << "step " << step;
            } else if (!hw.saturated(pid)) {
                // Unsaturated process: negatives are exact too.
                ASSERT_FALSE(ideal.query(pid, r)) << "step " << step;
            }
            break;
        }
    }
    // The stream above overflows 3 entries; some process lost state
    // and the loss was flagged.
    EXPECT_GT(hw.stats().saturation_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, TinyLossyStorage,
    ::testing::Combine(::testing::Values(EvictPolicy::LruDrop,
                                         EvictPolicy::DropNew),
                       ::testing::Values(5u, 17u, 29u)));

class StorageEquivalence : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(StorageEquivalence, LargeCacheMatchesIdealStore)
{
    // With enough entries and the spill policy, the hardware cache
    // must answer every query exactly like the unbounded reference.
    Rng rng(GetParam());
    TaintStorage hw(params(512));
    IdealRangeStore ideal;

    for (int step = 0; step < 2000; ++step) {
        ProcId pid = 1 + static_cast<ProcId>(rng.below(3));
        Addr start = 0x1000 + static_cast<Addr>(rng.below(512));
        Addr len = 1 + static_cast<Addr>(rng.below(16));
        AddrRange r = AddrRange::fromSize(start, len);
        switch (rng.below(4)) {
          case 0:
          case 1:
            hw.insert(pid, r);
            ideal.insert(pid, r);
            break;
          case 2:
            hw.remove(pid, r);
            ideal.remove(pid, r);
            break;
          default:
            ASSERT_EQ(hw.query(pid, r), ideal.query(pid, r))
                << "step " << step;
            break;
        }
        ASSERT_EQ(hw.bytes(), ideal.bytes()) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageEquivalence,
                         ::testing::Values(11, 22, 33, 44));

namespace
{

auto
statFields(const core::StorageStats &s)
{
    return std::make_tuple(s.lookups, s.lookup_hits, s.spill_hits,
                           s.inserts, s.removes, s.evictions, s.dropped,
                           s.saturation_events, s.coalesces,
                           s.max_entries_used);
}

/** Where the random op stream puts its ranges. */
enum class Layout
{
    Scattered, //!< any start, any length
    Abutting,  //!< starts and lengths on an 8-byte grid
};

} // namespace

class IndexVsScan
    : public ::testing::TestWithParam<
          std::tuple<EvictPolicy, Layout, size_t, uint64_t>>
{};

TEST_P(IndexVsScan, EveryOpMatchesLinearScanReference)
{
    // The indexed storage must be indistinguishable from the linear
    // scan over all params.entries slots: same return values, same
    // exported state (entries, stamps, clock, spills, saturation),
    // same totals and the same operation counters after every op,
    // including export -> restore round trips at random points.
    auto [policy, layout, entries, seed] = GetParam();
    const TaintStorageParams p = params(entries, policy);
    TaintStorage idx(p);
    testref::ReferenceTaintStorage ref(p);
    Rng rng(seed);

    // Enough distinct ranges to fill every cache size and evict.
    const Addr span = static_cast<Addr>((entries + 8) * 64);
    const int steps = static_cast<int>(2000 + 4 * entries);
    // One clear early on, so the cache refills after it.
    const int clear_at = static_cast<int>(rng.below(steps / 10));
    uint64_t multi_hits = 0;
    uint64_t touch_merges = 0;
    for (int step = 0; step < steps; ++step) {
        ProcId pid = 1 + static_cast<ProcId>(rng.below(2));
        Addr start = 0x1000 + static_cast<Addr>(rng.below(span));
        uint64_t op = rng.below(16);
        // Inserts stay short; a quarter of the other ranges are wide,
        // so queries hit several entries and removes cut through
        // several.
        Addr len = 1 + static_cast<Addr>(
            rng.below(op >= 6 && rng.below(4) == 0 ? 512 : 32));
        if (layout == Layout::Abutting) {
            // On an 8-byte grid, inserts often meet end to start
            // without overlapping, so insert must merge ranges that
            // only touch. Removes cut on grid lines, and refilling a
            // hole merges the fragments on both sides.
            start &= ~Addr(7);
            len = (len + 7) & ~Addr(7);
        }
        AddrRange r = AddrRange::fromSize(start, len);
        if (step == clear_at) {
            idx.clear();
            ref.clear();
        } else if (op < 6) {
            const uint64_t bytes = ref.bytes();
            const size_t valid = ref.validEntries();
            const uint64_t lost =
                ref.stats().evictions + ref.stats().dropped;
            ASSERT_EQ(idx.insert(pid, r), ref.insert(pid, r))
                << "insert at step " << step;
            // One entry absorbed, none lost and every byte new: r
            // only touched that entry.
            touch_merges += ref.validEntries() == valid &&
                ref.bytes() == bytes + r.bytes() &&
                ref.stats().evictions + ref.stats().dropped == lost;
        } else if (op < 9) {
            ASSERT_EQ(idx.remove(pid, r), ref.remove(pid, r))
                << "remove at step " << step;
        } else if (op < 15) {
            uint64_t clock = ref.clock();
            ASSERT_EQ(idx.query(pid, r), ref.query(pid, r))
                << "query at step " << step;
            multi_hits += ref.clock() > clock + 1;
        } else if (rng.below(2) == 0) {
            idx.clearSaturation();
            ref.clearSaturation();
        } else {
            const core::TaintStorageState state = ref.exportState();
            ASSERT_TRUE(state.wellFormed()) << "step " << step;
            idx.restoreState(state);
            ref.restoreState(state);
        }

        ASSERT_TRUE(idx.exportState() == ref.exportState())
            << "state at step " << step;
        ASSERT_EQ(idx.bytes(), ref.bytes()) << "step " << step;
        ASSERT_EQ(idx.rangeCount(), ref.rangeCount()) << "step " << step;
        ASSERT_EQ(idx.validEntries(), ref.validEntries())
            << "step " << step;
        ASSERT_EQ(idx.spilledRanges(), ref.spilledRanges())
            << "step " << step;
        for (ProcId q = 1; q <= 2; ++q)
            ASSERT_EQ(idx.saturated(q), ref.saturated(q))
                << "pid " << q << " at step " << step;
        ASSERT_EQ(statFields(idx.stats()), statFields(ref.stats()))
            << "stats at step " << step;
    }
    EXPECT_GT(idx.stats().evictions + idx.stats().dropped, 0u);
    if (entries > 1) {
        EXPECT_GT(multi_hits, 0u);
    }
    if (layout == Layout::Abutting) {
        EXPECT_GT(touch_merges, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesLayoutsSizesSeeds, IndexVsScan,
    ::testing::Combine(::testing::Values(EvictPolicy::LruSpill,
                                         EvictPolicy::LruDrop,
                                         EvictPolicy::DropNew),
                       ::testing::Values(Layout::Scattered,
                                         Layout::Abutting),
                       ::testing::Values(size_t(1), size_t(3),
                                         size_t(64), size_t(2730)),
                       ::testing::Values(3u, 101u, 977u)));

TEST(WordStorage, OvertaintsToBlockGranularity)
{
    WordTaintStorage st(2); // 4-byte blocks
    st.insert(1, AddrRange(0x102, 0x102)); // one byte
    // The whole containing block reads as tainted.
    EXPECT_TRUE(st.query(1, AddrRange(0x100, 0x100)));
    EXPECT_TRUE(st.query(1, AddrRange(0x103, 0x103)));
    EXPECT_FALSE(st.query(1, AddrRange(0x104, 0x104)));
    EXPECT_EQ(st.bytes(), 4u);
}

TEST(WordStorage, SpansMultipleBlocks)
{
    WordTaintStorage st(2);
    st.insert(1, AddrRange(0x102, 0x109));
    EXPECT_EQ(st.rangeCount(), 3u); // blocks 0x100, 0x104, 0x108
    EXPECT_EQ(st.bytes(), 12u);
    st.remove(1, AddrRange(0x104, 0x107));
    EXPECT_FALSE(st.query(1, AddrRange(0x105, 0x105)));
    EXPECT_TRUE(st.query(1, AddrRange(0x108, 0x108)));
}

TEST(WordStorage, PidSeparation)
{
    WordTaintStorage st(2);
    st.insert(1, AddrRange(0x100, 0x103));
    EXPECT_FALSE(st.query(2, AddrRange(0x100, 0x103)));
}

TEST(WordStorage, CoarseGranularityOvertaintsMore)
{
    WordTaintStorage fine(2);
    WordTaintStorage coarse(6); // 64-byte blocks
    fine.insert(1, AddrRange(0x100, 0x101));
    coarse.insert(1, AddrRange(0x100, 0x101));
    EXPECT_EQ(fine.bytes(), 4u);
    EXPECT_EQ(coarse.bytes(), 64u);
    EXPECT_FALSE(fine.query(1, AddrRange(0x13f, 0x13f)));
    EXPECT_TRUE(coarse.query(1, AddrRange(0x13f, 0x13f)));
}

TEST(WordStorage, NeverFalseNegativeVsIdeal)
{
    // Word granularity may overtaint but must never miss real taint.
    Rng rng(99);
    WordTaintStorage word(2);
    IdealRangeStore ideal;
    for (int step = 0; step < 1500; ++step) {
        Addr start = 0x1000 + static_cast<Addr>(rng.below(256));
        Addr len = 1 + static_cast<Addr>(rng.below(8));
        AddrRange r = AddrRange::fromSize(start, len);
        if (rng.below(2)) {
            word.insert(1, r);
            ideal.insert(1, r);
        } else {
            bool ideal_hit = ideal.query(1, r);
            if (ideal_hit) {
                ASSERT_TRUE(word.query(1, r)) << "step " << step;
            }
        }
    }
}
