/**
 * @file
 * Unit tests for the fault-injection layer: stream faults (drop,
 * duplicate, reorder, corrupt), storage faults (failed inserts,
 * forced evictions), command-port transients, degraded-mode verdicts,
 * determinism, and warning rate limiting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/hw_module.hh"
#include "core/pift_tracker.hh"
#include "core/taint_store.hh"
#include "core/taint_storage.hh"
#include "faults/fault_injector.hh"
#include "support/logging.hh"

using namespace pift;
using core::SinkVerdict;
using faults::FaultConfig;
using faults::FaultInjector;
using faults::FaultyStream;
using faults::FaultyTaintStore;
using taint::AddrRange;

namespace
{

sim::TraceRecord
record(SeqNum seq, sim::MemKind kind = sim::MemKind::None,
       ProcId pid = 1)
{
    sim::TraceRecord r;
    r.seq = seq;
    r.local_seq = seq;
    r.pid = pid;
    r.pc = 0x8000 + static_cast<Addr>(4 * seq);
    r.op = kind == sim::MemKind::Load ? isa::Op::Ldr
        : kind == sim::MemKind::Store ? isa::Op::Str : isa::Op::Nop;
    r.mem_kind = kind;
    if (kind != sim::MemKind::None) {
        r.mem_start = 0x1000 + static_cast<Addr>(16 * seq);
        r.mem_end = r.mem_start + 3;
    }
    return r;
}

/** Downstream sink that logs everything it receives. */
struct Recorder : sim::TraceSink
{
    void
    onRecord(const sim::TraceRecord &rec) override
    {
        records.push_back(rec);
    }

    void
    onControl(const sim::ControlEvent &ev) override
    {
        controls.push_back(ev);
    }

    std::vector<sim::TraceRecord> records;
    std::vector<sim::ControlEvent> controls;
};

/** Fault config with every rate zero except the ones set by caller. */
FaultConfig
quietConfig(uint64_t seed = 7)
{
    FaultConfig cfg;
    cfg.seed = seed;
    return cfg;
}

std::vector<SeqNum>
seqsOf(const std::vector<sim::TraceRecord> &records)
{
    std::vector<SeqNum> out;
    for (const auto &r : records)
        out.push_back(r.seq);
    return out;
}

} // namespace

// --------------------------------------------------------------------
// FaultyStream

TEST(FaultyStream, NoFaultsIsTransparent)
{
    FaultInjector inj(quietConfig());
    Recorder down;
    FaultyStream stream(inj, down);
    for (SeqNum i = 0; i < 50; ++i)
        stream.onRecord(record(i, sim::MemKind::Load));
    stream.flush();
    ASSERT_EQ(down.records.size(), 50u);
    for (SeqNum i = 0; i < 50; ++i)
        EXPECT_EQ(down.records[i].seq, i);
    EXPECT_EQ(inj.stats().total(), 0u);
    EXPECT_EQ(inj.stats().records_seen, 50u);
}

TEST(FaultyStream, DropsAreCountedAndAnnounced)
{
    FaultConfig cfg = quietConfig();
    cfg.drop_num = cfg.rate_den; // always
    FaultInjector inj(cfg);
    Recorder down;
    std::vector<ProcId> lost;
    FaultyStream stream(inj, down,
                        [&lost](ProcId pid) { lost.push_back(pid); });
    for (SeqNum i = 0; i < 10; ++i)
        stream.onRecord(record(i, sim::MemKind::Store, 42));
    stream.flush();
    EXPECT_TRUE(down.records.empty());
    EXPECT_EQ(inj.stats().dropped, 10u);
    ASSERT_EQ(lost.size(), 10u);
    EXPECT_EQ(lost.front(), 42u);
}

TEST(FaultyStream, DuplicatesDeliverTwice)
{
    FaultConfig cfg = quietConfig();
    cfg.dup_num = cfg.rate_den;
    FaultInjector inj(cfg);
    Recorder down;
    FaultyStream stream(inj, down);
    for (SeqNum i = 0; i < 5; ++i)
        stream.onRecord(record(i));
    EXPECT_EQ(down.records.size(), 10u);
    EXPECT_EQ(inj.stats().duplicated, 5u);
    EXPECT_EQ(down.records[0].seq, down.records[1].seq);
}

TEST(FaultyStream, ReorderKeepsEveryRecord)
{
    FaultConfig cfg = quietConfig(13);
    cfg.reorder_num = cfg.rate_den / 2; // half the records delayed
    cfg.reorder_window = 3;
    FaultInjector inj(cfg);
    Recorder down;
    FaultyStream stream(inj, down);
    constexpr SeqNum n = 200;
    for (SeqNum i = 0; i < n; ++i)
        stream.onRecord(record(i, sim::MemKind::Load));
    stream.flush();

    ASSERT_EQ(down.records.size(), n);
    EXPECT_GT(inj.stats().reordered, 0u);
    // Same multiset of records, different order.
    auto seqs = seqsOf(down.records);
    auto sorted = seqs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_NE(seqs, sorted);
    for (SeqNum i = 0; i < n; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(FaultyStream, ControlEventsFlushPendingRecords)
{
    FaultConfig cfg = quietConfig();
    cfg.reorder_num = cfg.rate_den; // everything held back
    FaultInjector inj(cfg);
    Recorder down;
    FaultyStream stream(inj, down);
    for (SeqNum i = 0; i < 4; ++i)
        stream.onRecord(record(i));
    EXPECT_TRUE(down.records.empty()); // all pending

    sim::ControlEvent ev;
    ev.kind = sim::ControlKind::CheckSink;
    ev.pid = 1;
    stream.onControl(ev);
    // The software command sees every hardware event that preceded it.
    EXPECT_EQ(down.records.size(), 4u);
    ASSERT_EQ(down.controls.size(), 1u);
}

TEST(FaultyStream, CorruptShiftsRangeButKeepsSize)
{
    FaultConfig cfg = quietConfig(3);
    cfg.corrupt_num = cfg.rate_den;
    FaultInjector inj(cfg);
    Recorder down;
    bool announced = false;
    FaultyStream stream(inj, down,
                        [&announced](ProcId) { announced = true; });
    for (SeqNum i = 0; i < 20; ++i)
        stream.onRecord(record(i, sim::MemKind::Store));
    stream.flush();

    ASSERT_EQ(down.records.size(), 20u);
    EXPECT_EQ(inj.stats().corrupted, 20u);
    // Integrity faults are silent: no loss announcement.
    EXPECT_FALSE(announced);
    bool any_shifted = false;
    for (SeqNum i = 0; i < 20; ++i) {
        const auto &orig = record(i, sim::MemKind::Store);
        const auto &got = down.records[i];
        EXPECT_EQ(got.mem_end - got.mem_start,
                  orig.mem_end - orig.mem_start);
        if (got.mem_start != orig.mem_start)
            any_shifted = true;
    }
    EXPECT_TRUE(any_shifted);
}

TEST(FaultyStream, NonMemoryRecordsAreNeverCorrupted)
{
    FaultConfig cfg = quietConfig();
    cfg.corrupt_num = cfg.rate_den;
    FaultInjector inj(cfg);
    Recorder down;
    FaultyStream stream(inj, down);
    stream.onRecord(record(0)); // no memory access
    ASSERT_EQ(down.records.size(), 1u);
    EXPECT_EQ(inj.stats().corrupted, 0u);
    EXPECT_EQ(down.records[0].mem_start, 0u);
}

TEST(FaultyStream, SameSeedReproducesExactFaultPattern)
{
    auto run = [](uint64_t seed) {
        FaultConfig cfg;
        cfg.seed = seed;
        cfg.drop_num = 200'000;
        cfg.dup_num = 100'000;
        cfg.reorder_num = 100'000;
        cfg.corrupt_num = 50'000;
        FaultInjector inj(cfg);
        Recorder down;
        FaultyStream stream(inj, down);
        for (SeqNum i = 0; i < 500; ++i)
            stream.onRecord(record(i, sim::MemKind::Load));
        stream.flush();
        return std::make_pair(seqsOf(down.records), inj.stats());
    };

    auto [seqs_a, stats_a] = run(99);
    auto [seqs_b, stats_b] = run(99);
    EXPECT_EQ(seqs_a, seqs_b);
    EXPECT_EQ(stats_a.dropped, stats_b.dropped);
    EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
    EXPECT_EQ(stats_a.reordered, stats_b.reordered);
    EXPECT_EQ(stats_a.corrupted, stats_b.corrupted);

    auto [seqs_c, stats_c] = run(100);
    EXPECT_NE(seqs_a, seqs_c); // different seed, different pattern
}

// --------------------------------------------------------------------
// FaultyTaintStore

TEST(FaultyTaintStore, NoFaultsDelegates)
{
    FaultInjector inj(quietConfig());
    core::IdealRangeStore inner;
    FaultyTaintStore store(inj, inner);
    EXPECT_TRUE(store.insert(1, AddrRange(0x100, 0x1ff)));
    EXPECT_TRUE(store.query(1, AddrRange(0x180, 0x180)));
    EXPECT_EQ(store.bytes(), 0x100u);
    EXPECT_TRUE(store.remove(1, AddrRange(0x100, 0x1ff)));
    EXPECT_EQ(store.rangeCount(), 0u);
    EXPECT_FALSE(store.saturated(1));
}

TEST(FaultyTaintStore, InsertFailureSaturatesProcess)
{
    FaultConfig cfg = quietConfig();
    cfg.insert_fail_num = cfg.rate_den;
    FaultInjector inj(cfg);
    core::IdealRangeStore inner;
    FaultyTaintStore store(inj, inner);
    EXPECT_FALSE(store.insert(7, AddrRange(0x100, 0x1ff)));
    EXPECT_FALSE(store.query(7, AddrRange(0x100, 0x100)));
    EXPECT_TRUE(store.saturated(7));
    EXPECT_FALSE(store.saturated(8));
    EXPECT_EQ(inj.stats().insert_fails, 1u);

    store.clearSaturation();
    EXPECT_FALSE(store.saturated(7));
}

TEST(FaultyTaintStore, ForcedEvictionRemovesARangeAndSaturates)
{
    FaultConfig cfg = quietConfig();
    cfg.forced_evict_num = cfg.rate_den;
    FaultInjector inj(cfg);
    core::IdealRangeStore inner;
    FaultyTaintStore store(inj, inner);
    store.insert(3, AddrRange(0x100, 0x1ff));
    // The insert itself triggered a forced evict of a history victim
    // (only candidate: the range just inserted).
    EXPECT_EQ(inj.stats().forced_evicts, 1u);
    EXPECT_FALSE(store.query(3, AddrRange(0x150, 0x150)));
    EXPECT_TRUE(store.saturated(3));
}

// --------------------------------------------------------------------
// Command-port faults and degraded verdicts

TEST(HwModuleFaults, CommandFaultLatchesErrorAndStatus)
{
    core::IdealRangeStore store;
    core::PiftTracker tracker(core::PiftParams{}, store);
    core::HwModule hw(tracker);

    FaultConfig cfg = quietConfig();
    cfg.cmd_error_num = cfg.rate_den;
    FaultInjector inj(cfg);
    hw.setCommandFaultHook(inj.commandFaultHook());

    hw.writePort(core::hw_ports::pid, 1);
    hw.writePort(core::hw_ports::start, 0x100);
    hw.writePort(core::hw_ports::end, 0x1ff);
    hw.writePort(core::hw_ports::command,
                 static_cast<uint32_t>(core::HwCommand::RegisterRange));
    EXPECT_EQ(hw.readPort(core::hw_ports::result), core::hw_cmd_error);
    EXPECT_TRUE(hw.readPort(core::hw_ports::status) &
                core::hw_status::cmd_failed);
    // The command did not execute.
    EXPECT_FALSE(store.query(1, AddrRange(0x100, 0x100)));
    EXPECT_EQ(inj.stats().cmd_errors, 1u);

    // Fault source detached: the re-issued command lands and the
    // sticky cmd_failed bit clears.
    hw.setCommandFaultHook({});
    hw.writePort(core::hw_ports::command,
                 static_cast<uint32_t>(core::HwCommand::RegisterRange));
    EXPECT_NE(hw.readPort(core::hw_ports::result), core::hw_cmd_error);
    EXPECT_FALSE(hw.readPort(core::hw_ports::status) &
                 core::hw_status::cmd_failed);
    EXPECT_TRUE(store.query(1, AddrRange(0x100, 0x100)));
}

TEST(DegradedVerdicts, StreamLossTurnsCleanIntoMaybe)
{
    core::IdealRangeStore store;
    core::PiftTracker tracker(core::PiftParams{}, store);

    sim::ControlEvent sink;
    sink.kind = sim::ControlKind::CheckSink;
    sink.pid = 1;
    sink.start = 0x9000;
    sink.end = 0x90ff;

    tracker.onControl(sink);
    ASSERT_EQ(tracker.sinkResults().size(), 1u);
    EXPECT_EQ(tracker.sinkResults()[0].verdict, SinkVerdict::Clean);

    tracker.noteStreamLoss(1);
    EXPECT_TRUE(tracker.degraded(1));
    tracker.onControl(sink);
    EXPECT_EQ(tracker.sinkResults()[1].verdict,
              SinkVerdict::MaybeTainted);
    EXPECT_FALSE(tracker.anyLeak());
    EXPECT_TRUE(tracker.anyPossibleLeak());

    // Loss for another process does not degrade this one.
    EXPECT_FALSE(tracker.degraded(2));

    // A genuinely tainted buffer still reads Tainted.
    sim::ControlEvent src = sink;
    src.kind = sim::ControlKind::RegisterSource;
    tracker.onControl(src);
    tracker.onControl(sink);
    EXPECT_EQ(tracker.sinkResults()[2].verdict, SinkVerdict::Tainted);
    EXPECT_TRUE(tracker.anyLeak());
}

TEST(DegradedVerdicts, StorageSaturationTurnsCleanIntoMaybe)
{
    core::TaintStorageParams sp;
    sp.entries = 1;
    sp.policy = core::EvictPolicy::LruDrop;
    core::TaintStorage storage(sp);
    core::PiftTracker tracker(core::PiftParams{}, storage);

    sim::ControlEvent src;
    src.kind = sim::ControlKind::RegisterSource;
    src.pid = 1;
    src.start = 0x100;
    src.end = 0x1ff;
    tracker.onControl(src);
    src.start = 0x300;
    src.end = 0x3ff; // evicts + drops the first range
    tracker.onControl(src);
    ASSERT_TRUE(storage.saturated(1));

    sim::ControlEvent sink;
    sink.kind = sim::ControlKind::CheckSink;
    sink.pid = 1;
    sink.start = 0x9000;
    sink.end = 0x90ff;
    tracker.onControl(sink);
    EXPECT_EQ(tracker.sinkResults().back().verdict,
              SinkVerdict::MaybeTainted);
}

// --------------------------------------------------------------------
// Warning rate limiting

TEST(WarnRateLimit, SuppressesAfterLimitButKeepsCounting)
{
    resetWarnRateLimits();
    uint64_t warns_before = warnCount();
    uint64_t supp_before = warnSuppressedCount();
    for (int i = 0; i < 10; ++i)
        pift_warn_limited(3, "rate-limit test warning %d", i);
    // Every raise is counted, only the first three were emitted.
    EXPECT_EQ(warnCount() - warns_before, 10u);
    EXPECT_EQ(warnSuppressedCount() - supp_before, 7u);

    // A fresh site identity starts its own budget.
    resetWarnRateLimits();
    pift_warn_limited(3, "rate-limit test warning again");
    EXPECT_EQ(warnSuppressedCount() - supp_before, 7u);
}
