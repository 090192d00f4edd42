/**
 * @file
 * Tests for the analysis layer: the distance profiler on synthetic
 * streams, replay-based evaluation, the accuracy sweep, overhead
 * measurement, and the static census.
 */

#include <gtest/gtest.h>

#include "analysis/census.hh"
#include "analysis/evaluate.hh"
#include "analysis/profiler.hh"

using namespace pift;
using analysis::DistanceProfiler;

namespace
{

sim::TraceRecord
memRec(SeqNum seq, sim::MemKind kind, Addr start, Addr len = 4)
{
    sim::TraceRecord r;
    r.seq = seq;
    r.local_seq = seq;
    r.pid = 1;
    r.op = kind == sim::MemKind::Load ? isa::Op::Ldr : isa::Op::Str;
    r.mem_kind = kind;
    r.mem_start = start;
    r.mem_end = start + len - 1;
    // Route data through r1 so the full-DIFT baseline sees the flow.
    if (kind == sim::MemKind::Load)
        r.dst = 1;
    else
        r.src[0] = 1;
    return r;
}

sim::TraceRecord
aluRec(SeqNum seq)
{
    sim::TraceRecord r;
    r.seq = seq;
    r.local_seq = seq;
    r.pid = 1;
    r.op = isa::Op::Add;
    return r;
}

/** L _ _ S L S pattern repeated. */
sim::Trace
syntheticTrace()
{
    sim::Trace t;
    SeqNum seq = 0;
    for (int rep = 0; rep < 10; ++rep) {
        t.records.push_back(memRec(seq++, sim::MemKind::Load, 0x1000));
        t.records.push_back(aluRec(seq++));
        t.records.push_back(aluRec(seq++));
        t.records.push_back(memRec(seq++, sim::MemKind::Store,
                                   0x2000));
        t.records.push_back(memRec(seq++, sim::MemKind::Load, 0x1004));
        t.records.push_back(memRec(seq++, sim::MemKind::Store,
                                   0x2004));
    }
    return t;
}

} // namespace

TEST(Profiler, CountsAndFig2Metrics)
{
    DistanceProfiler p;
    p.consume(syntheticTrace());
    EXPECT_EQ(p.loadCount(), 20u);
    EXPECT_EQ(p.storeCount(), 20u);
    EXPECT_EQ(p.instructionCount(), 60u);

    // Store->last-load distances: alternately 3 and 1.
    EXPECT_EQ(p.storeToLastLoad().at(3), 10u);
    EXPECT_EQ(p.storeToLastLoad().at(1), 10u);
    EXPECT_EQ(p.storeToLastLoad().count(), 20u);

    // Stores between consecutive loads: always 1 (19 gaps).
    EXPECT_EQ(p.storesBetweenLoads().at(1), 19u);

    // Load->load distances: alternately 4 and 2.
    EXPECT_EQ(p.loadToLoad().at(4), 10u);
    EXPECT_EQ(p.loadToLoad().at(2), 9u);
}

TEST(Profiler, StoresInWindow)
{
    DistanceProfiler p;
    p.consume(syntheticTrace());
    // Window 1 after the first load of a group: no store (distance 3).
    auto h1 = p.storesInWindow(1);
    EXPECT_GT(h1.at(0), 0u);
    // Window 3 catches exactly one store for every load.
    auto h3 = p.storesInWindow(3);
    EXPECT_EQ(h3.at(1), 20u);
    // A huge window sees many stores.
    auto h50 = p.storesInWindow(50);
    EXPECT_GT(h50.mean(), 5.0);
}

TEST(Profiler, MeanDistanceToRankedStores)
{
    DistanceProfiler p;
    p.consume(syntheticTrace());
    // Rank 1 within window 3: distance 3 for group loads, 1 for the
    // second loads -> mean 2.
    EXPECT_DOUBLE_EQ(p.meanDistanceToStore(3, 1), 2.0);
    // Rank 2 within window 3 never fits.
    EXPECT_DOUBLE_EQ(p.meanDistanceToStore(3, 2), 0.0);
}

TEST(Evaluate, DetectsDirectFlowAndRespectsWindow)
{
    // source [0x1000]; load it, store to 0x2000 at distance 2;
    // check 0x2000.
    sim::Trace t;
    sim::ControlEvent src;
    src.seq = 0;
    src.kind = sim::ControlKind::RegisterSource;
    src.pid = 1;
    src.start = 0x1000;
    src.end = 0x1003;
    t.controls.push_back(src);
    t.records.push_back(memRec(0, sim::MemKind::Load, 0x1000));
    t.records.push_back(aluRec(1));
    t.records.push_back(memRec(2, sim::MemKind::Store, 0x2000));
    sim::ControlEvent chk;
    chk.seq = 3;
    chk.kind = sim::ControlKind::CheckSink;
    chk.pid = 1;
    chk.start = 0x2000;
    chk.end = 0x2003;
    chk.id = 1;
    t.controls.push_back(chk);

    core::PiftParams wide{5, 3, true};
    core::PiftParams narrow{1, 3, true};
    EXPECT_TRUE(analysis::piftDetectsLeak(t, wide));
    EXPECT_FALSE(analysis::piftDetectsLeak(t, narrow));
    EXPECT_EQ(analysis::minimalNi(t, 3), 2u);
    EXPECT_TRUE(analysis::baselineDetectsLeak(t));
}

TEST(Evaluate, MinimalNiReturnsSentinelWhenNeverDetected)
{
    sim::Trace t;
    t.records.push_back(aluRec(0));
    sim::ControlEvent chk;
    chk.seq = 1;
    chk.kind = sim::ControlKind::CheckSink;
    chk.pid = 1;
    chk.start = 0x2000;
    chk.end = 0x2003;
    t.controls.push_back(chk);
    EXPECT_EQ(analysis::minimalNi(t, 3, 10), 11u);
}

TEST(Evaluate, AccuracyConfusionMatrix)
{
    std::vector<analysis::LabelledTrace> set;
    // One true positive, one true negative.
    {
        analysis::LabelledTrace lt;
        lt.name = "leaky";
        lt.leaks = true;
        sim::ControlEvent src;
        src.kind = sim::ControlKind::RegisterSource;
        src.pid = 1;
        src.start = 0x1000;
        src.end = 0x1003;
        lt.trace.controls.push_back(src);
        sim::ControlEvent chk;
        chk.seq = 0;
        chk.kind = sim::ControlKind::CheckSink;
        chk.pid = 1;
        chk.start = 0x1000;
        chk.end = 0x1000;
        lt.trace.controls.push_back(chk);
        set.push_back(std::move(lt));
    }
    {
        analysis::LabelledTrace lt;
        lt.name = "benign";
        lt.leaks = false;
        sim::ControlEvent chk;
        chk.kind = sim::ControlKind::CheckSink;
        chk.pid = 1;
        chk.start = 0x9000;
        chk.end = 0x9003;
        lt.trace.controls.push_back(chk);
        set.push_back(std::move(lt));
    }
    auto acc = analysis::evaluateAccuracy(set, {13, 3, true});
    EXPECT_EQ(acc.tp, 1u);
    EXPECT_EQ(acc.tn, 1u);
    EXPECT_EQ(acc.fp, 0u);
    EXPECT_EQ(acc.fn, 0u);
    EXPECT_DOUBLE_EQ(acc.accuracy(), 1.0);

    auto sweep = analysis::accuracySweep(set, 3, 2);
    EXPECT_DOUBLE_EQ(sweep.at(1, 1), 100.0);
    EXPECT_DOUBLE_EQ(sweep.at(2, 3), 100.0);
}

TEST(Evaluate, OverheadTimelinesTrackState)
{
    sim::Trace t;
    sim::ControlEvent src;
    src.seq = 0;
    src.kind = sim::ControlKind::RegisterSource;
    src.pid = 1;
    src.start = 0x1000;
    src.end = 0x100f; // 16 bytes
    t.controls.push_back(src);
    t.records.push_back(memRec(0, sim::MemKind::Load, 0x1000));
    t.records.push_back(memRec(1, sim::MemKind::Store, 0x2000));
    // In-window store covering no new bytes: journaled, not an op.
    t.records.push_back(memRec(2, sim::MemKind::Store, 0x2000));
    for (SeqNum s = 3; s < 30; ++s)
        t.records.push_back(aluRec(s));
    t.records.push_back(memRec(30, sim::MemKind::Store, 0x2000));
    // Late store to untainted bytes: nothing to untaint.
    t.records.push_back(memRec(31, sim::MemKind::Store, 0x3000));

    auto o = analysis::measureOverhead(t, {5, 3, true});
    EXPECT_EQ(o.max_tainted_bytes, 20u);
    EXPECT_EQ(o.max_ranges, 2u);
    EXPECT_EQ(o.taint_ops, 2u);   // source + in-window store
    EXPECT_EQ(o.untaint_ops, 1u); // late overwrite
    EXPECT_EQ(o.horizon, t.records.size());
    EXPECT_DOUBLE_EQ(o.tainted_bytes.lastValue(), 16.0);
    EXPECT_DOUBLE_EQ(o.cumulative_ops.lastValue(), 3.0);

    // One point per effective op, stamped with the records it follows.
    struct Point
    {
        SeqNum records;
        double bytes, ops;
    };
    const Point expect[] = {{0, 16, 1}, {2, 20, 2}, {31, 16, 3}};
    const auto &bytes = o.tainted_bytes.points();
    const auto &ops = o.cumulative_ops.points();
    ASSERT_EQ(bytes.size(), 3u);
    ASSERT_EQ(ops.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(bytes[i].seq, expect[i].records);
        EXPECT_DOUBLE_EQ(bytes[i].value, expect[i].bytes);
        EXPECT_EQ(ops[i].seq, expect[i].records);
        EXPECT_DOUBLE_EQ(ops[i].value, expect[i].ops);
    }
}

TEST(Census, RanksByFrequency)
{
    analysis::CensusMap counts;
    counts[dalvik::Bc::Move] = 10;
    counts[dalvik::Bc::AddInt] = 30;
    counts[dalvik::Bc::Goto] = 20;
    auto ranked = analysis::rankCensus(counts, 2);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].bc, dalvik::Bc::AddInt);
    EXPECT_DOUBLE_EQ(ranked[0].percent, 50.0);
    EXPECT_EQ(ranked[1].bc, dalvik::Bc::Goto);
}

TEST(Census, AccumulatesByOrigin)
{
    dalvik::Dex dex;
    dalvik::MethodBuilder app("app.m", 8, 0);
    app.const4(0, 1).returnValue(0);
    dex.addMethod(app.origin(dalvik::MethodOrigin::App).finish());
    dalvik::MethodBuilder lib("lib.m", 8, 0);
    lib.nop().returnVoid();
    dex.addMethod(lib.origin(dalvik::MethodOrigin::SystemLib).finish());

    analysis::CensusMap apps, libs;
    analysis::accumulateCensus(dex, dalvik::MethodOrigin::App, apps);
    analysis::accumulateCensus(dex, dalvik::MethodOrigin::SystemLib,
                               libs);
    EXPECT_EQ(apps[dalvik::Bc::Const4], 1u);
    EXPECT_EQ(apps[dalvik::Bc::Return], 1u);
    EXPECT_EQ(apps.count(dalvik::Bc::Nop), 0u);
    EXPECT_EQ(libs[dalvik::Bc::Nop], 1u);
    EXPECT_EQ(libs[dalvik::Bc::ReturnVoid], 1u);
}

TEST(Census, DistanceTableConsistentWithAnnotations)
{
    auto rows = analysis::bytecodeDistanceTable();
    ASSERT_EQ(rows.size(), dalvik::num_bytecodes);
    for (const auto &row : rows) {
        if (row.expected >= 0) {
            EXPECT_EQ(row.measured, row.expected)
                << dalvik::bcName(row.bc);
        } else {
            EXPECT_EQ(row.measured, row.expected)
                << dalvik::bcName(row.bc);
        }
    }
}
