/**
 * @file
 * Tests for the batched SoA event pipeline and the decoded-instruction
 * cache (DESIGN.md §12). The contract under test is strict
 * equivalence: batching and decode caching are allowed to change
 * nothing observable — not verdicts, not stats, not exported state,
 * not a single captured trace byte — at any batch size or cache
 * geometry, over the entire 64-app registry.
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/pift_tracker.hh"
#include "core/taint_store.hh"
#include "core/taint_storage.hh"
#include "droidbench/app.hh"
#include "isa/assembler.hh"
#include "mem/memory.hh"
#include "sim/batch.hh"
#include "sim/cpu.hh"
#include "sim/trace.hh"
#include "sim/trace_io.hh"

#include "reference_taint_storage.hh"

using namespace pift;
using namespace pift::sim;

namespace
{

TraceRecord
makeRecord(SeqNum seq, MemKind kind = MemKind::None)
{
    TraceRecord r;
    r.seq = seq;
    r.local_seq = seq;
    r.pid = 1;
    r.pc = 0x8000 + static_cast<Addr>(4 * seq);
    r.op = kind == MemKind::Load ? isa::Op::Ldr
        : kind == MemKind::Store ? isa::Op::Str : isa::Op::Nop;
    r.mem_kind = kind;
    if (kind != MemKind::None) {
        r.mem_start = 0x1000 + static_cast<Addr>(seq);
        r.mem_end = r.mem_start + 3;
    }
    return r;
}

/** Sink logging delivery order through the per-event interface. */
struct OrderSink : TraceSink
{
    void
    onRecord(const TraceRecord &rec) override
    {
        log.push_back("R" + std::to_string(rec.seq));
    }

    void
    onControl(const ControlEvent &ev) override
    {
        log.push_back("C" + std::to_string(ev.id));
    }

    std::vector<std::string> log;
};

/** Batch-aware sink checking SoA columns against the AoS rows. */
struct BatchSink : TraceSink
{
    void
    onRecord(const TraceRecord &rec) override
    {
        seen.push_back(rec.seq);
    }

    void
    onControl(const ControlEvent &ev) override
    {
        controls.push_back(ev.id);
    }

    void
    onBatch(const EventBatch &batch) override
    {
        ++batches;
        for (uint32_t i = 0; i < batch.count; ++i)
            seen.push_back(batch.records[i].seq);
        for (uint32_t k = 0; k < batch.mem_count; ++k) {
            const TraceRecord &rec =
                batch.records[batch.mem_index[k] - batch.index_base];
            EXPECT_EQ(batch.pid[k], rec.pid);
            EXPECT_EQ(batch.local_seq[k], rec.local_seq);
            EXPECT_EQ(batch.pc[k], rec.pc);
            EXPECT_EQ(batch.start[k], rec.mem_start);
            EXPECT_EQ(batch.end[k], rec.mem_end);
            EXPECT_EQ(static_cast<MemKind>(batch.kind[k]),
                      rec.mem_kind);
        }
    }

    std::vector<SeqNum> seen;
    std::vector<uint32_t> controls;
    int batches = 0;
};

Trace
mixedTrace()
{
    Trace t;
    for (SeqNum s = 0; s < 23; ++s)
        t.records.push_back(makeRecord(
            s, s % 3 == 0 ? MemKind::Load
                          : s % 3 == 1 ? MemKind::Store
                                       : MemKind::None));
    // Controls before the first record, mid-stream (including two at
    // the same seq), and after the last record.
    for (uint32_t i = 0; i < 5; ++i) {
        ControlEvent ev;
        ev.id = i;
        ev.kind = ControlKind::RegisterSource;
        ev.seq = i == 0 ? 0 : i == 4 ? 23 : 7 * i;
        t.controls.push_back(ev);
    }
    return t;
}

std::string
serialize(const Trace &trace)
{
    std::ostringstream os;
    writeTrace(os, trace);
    return os.str();
}

/** The full 64-app registry, captured once per process. */
const std::vector<droidbench::AppRun> &
registryRuns()
{
    static const std::vector<droidbench::AppRun> runs = [] {
        std::vector<droidbench::AppRun> out;
        for (const auto &entry : droidbench::droidBenchApps())
            out.push_back(droidbench::runApp(entry));
        for (const auto &entry : droidbench::malwareApps())
            out.push_back(droidbench::runApp(entry));
        return out;
    }();
    return runs;
}

void
expectSameTrackerState(const core::TrackerState &a,
                       const core::TrackerState &b)
{
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].pid, b.windows[i].pid);
        EXPECT_EQ(a.windows[i].active, b.windows[i].active);
        EXPECT_EQ(a.windows[i].ltlt, b.windows[i].ltlt);
        EXPECT_EQ(a.windows[i].used, b.windows[i].used);
    }
    EXPECT_EQ(a.lossy, b.lossy);
    EXPECT_EQ(a.global_loss, b.global_loss);
    ASSERT_EQ(a.sinks.size(), b.sinks.size());
    for (size_t i = 0; i < a.sinks.size(); ++i) {
        EXPECT_EQ(a.sinks[i].sink_id, b.sinks[i].sink_id);
        EXPECT_EQ(a.sinks[i].pid, b.sinks[i].pid);
        EXPECT_EQ(a.sinks[i].range.start, b.sinks[i].range.start);
        EXPECT_EQ(a.sinks[i].range.end, b.sinks[i].range.end);
        EXPECT_EQ(a.sinks[i].tainted, b.sinks[i].tainted);
        EXPECT_EQ(a.sinks[i].verdict, b.sinks[i].verdict);
        EXPECT_EQ(a.sinks[i].at_records, b.sinks[i].at_records);
    }
    EXPECT_EQ(a.records_seen, b.records_seen);
    EXPECT_EQ(a.controls_seen, b.controls_seen);
}

void
expectSameTrackerStats(const core::TrackerStats &a,
                       const core::TrackerStats &b)
{
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.tainted_loads, b.tainted_loads);
    EXPECT_EQ(a.taint_ops, b.taint_ops);
    EXPECT_EQ(a.untaint_ops, b.untaint_ops);
    EXPECT_EQ(a.max_tainted_bytes, b.max_tainted_bytes);
    EXPECT_EQ(a.max_ranges, b.max_ranges);
    EXPECT_EQ(a.stream_loss_events, b.stream_loss_events);
}

void
expectSameStorageStats(const core::StorageStats &a,
                       const core::StorageStats &b)
{
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.lookup_hits, b.lookup_hits);
    EXPECT_EQ(a.spill_hits, b.spill_hits);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.removes, b.removes);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.saturation_events, b.saturation_events);
    EXPECT_EQ(a.coalesces, b.coalesces);
    EXPECT_EQ(a.max_entries_used, b.max_entries_used);
    EXPECT_EQ(a.entry_compares, b.entry_compares);
}

} // namespace

TEST(BatchPipeline, ShimUnrollsBatchesIdentically)
{
    Trace t = mixedTrace();
    OrderSink per_event;
    replay(t, per_event);
    for (uint32_t records : {1u, 2u, 3u, 5u, 64u,
                             default_batch_records}) {
        OrderSink batched;
        replayBatched(t, batched, records);
        EXPECT_EQ(batched.log, per_event.log)
            << "batch size " << records;
    }
}

TEST(BatchPipeline, BatchSinkSeesEveryRecordOnceInOrder)
{
    Trace t = mixedTrace();
    for (uint32_t records : {1u, 3u, 7u, 1024u}) {
        BatchSink sink;
        replayBatched(t, sink, records);
        ASSERT_EQ(sink.seen.size(), t.records.size());
        for (SeqNum s = 0; s < sink.seen.size(); ++s)
            EXPECT_EQ(sink.seen[s], s);
        EXPECT_EQ(sink.controls.size(), t.controls.size());
        EXPECT_GT(sink.batches, 0);
    }
}

TEST(BatchPipeline, ZeroBatchSizeFallsBackToPerEvent)
{
    Trace t = mixedTrace();
    BatchSink sink;
    replayBatched(t, sink, 0);
    EXPECT_EQ(sink.batches, 0);
    EXPECT_EQ(sink.seen.size(), t.records.size());
}

TEST(BatchPipeline, PackedTraceSlicesMatchSource)
{
    Trace t = mixedTrace();
    PackedTrace packed(t);
    uint32_t mems = 0;
    for (const auto &rec : t.records)
        mems += rec.mem_kind != MemKind::None;
    EXPECT_EQ(packed.memCount(), mems);
    EventBatch whole = packed.sliceAt(
        0, static_cast<uint32_t>(t.records.size()));
    EXPECT_EQ(whole.count, t.records.size());
    EXPECT_EQ(whole.mem_count, mems);
}

namespace
{

/** Forwards only the first records and controls of a stream. */
struct PrefixSink : TraceSink
{
    PrefixSink(TraceSink &to, SeqNum records, uint64_t controls)
        : to(to), records(records), controls(controls)
    {
    }

    void
    onRecord(const TraceRecord &rec) override
    {
        if (nrecords++ < records)
            to.onRecord(rec);
    }

    void
    onControl(const ControlEvent &ev) override
    {
        if (ncontrols++ < controls)
            to.onControl(ev);
    }

    TraceSink &to;
    SeqNum records;
    uint64_t controls;
    SeqNum nrecords = 0;
    uint64_t ncontrols = 0;
};

/**
 * Every (records, controls) cursor that names a point of the merged
 * stream: after r records, every control due before the last of them
 * has been delivered, and any prefix of those due before the next.
 */
std::vector<std::pair<SeqNum, uint64_t>>
everyCut(const Trace &t)
{
    std::vector<std::pair<SeqNum, uint64_t>> cuts;
    uint64_t before = 0; // controls with seq < r
    for (SeqNum r = 0; r <= t.records.size(); ++r) {
        uint64_t upto = before; // controls with seq <= r
        while (upto < t.controls.size() &&
               (t.controls[upto].seq <= r || r == t.records.size()))
            ++upto;
        for (uint64_t c = before; c <= upto; ++c)
            cuts.emplace_back(r, c);
        while (before < t.controls.size() && t.controls[before].seq <= r)
            ++before;
    }
    return cuts;
}

} // namespace

TEST(BatchPipeline, ResumedReplayDeliversTheSameSuffix)
{
    Trace t = mixedTrace();
    PackedTrace packed(t);
    for (auto [records, controls] : everyCut(t)) {
        OrderSink per_event;
        replayFrom(t, per_event, records, controls);
        for (uint32_t size : {0u, 1u, 3u, 5u, default_batch_records}) {
            OrderSink batched;
            replayBatchedFrom(packed, batched, records, controls, size);
            EXPECT_EQ(batched.log, per_event.log)
                << "cut (" << records << ", " << controls << ") batch size "
                << size;
        }
    }
}

/**
 * A tracker stopped at any cursor — at every control boundary and in
 * the middle of batches — and resumed from its exported state over a
 * copy of its ranges ends in exactly the state of one uninterrupted
 * replay: the grouped sweep's fork relies on it.
 */
TEST(BatchPipeline, ResumedReplayReachesTheUninterruptedState)
{
    core::PiftParams params;
    params.ni = 5;
    params.nt = 2;
    int resumed = 0;
    for (const auto &run : registryRuns()) {
        const Trace &t = run.trace;
        if (t.records.size() > 60000 || t.controls.size() < 2)
            continue;
        PackedTrace packed(t);
        core::IdealRangeStore whole_store;
        core::PiftTracker whole(params, whole_store);
        replayBatched(packed, whole);
        const core::TrackerState want = whole.exportState();

        std::vector<std::pair<SeqNum, uint64_t>> cuts;
        for (uint64_t c = 0; c < t.controls.size(); ++c) {
            cuts.emplace_back(t.controls[c].seq, c);
            cuts.emplace_back(t.controls[c].seq, c + 1);
        }
        for (SeqNum r = 517; r < t.records.size(); r += 4 * 1024 + 1) {
            uint64_t c = 0;
            while (c < t.controls.size() && t.controls[c].seq < r)
                ++c;
            cuts.emplace_back(r, c);
        }
        for (auto [records, controls] : cuts) {
            core::IdealRangeStore head_store;
            core::PiftTracker head(params, head_store);
            PrefixSink prefix(head, records, controls);
            replay(t, prefix);

            core::IdealRangeStore tail_store;
            tail_store.copyRangesFrom(head_store);
            core::PiftTracker tail(params, tail_store);
            tail.restoreState(head.exportState());
            replayBatchedFrom(packed, tail, records, controls);
            SCOPED_TRACE(::testing::Message()
                         << "cut (" << records << ", " << controls << ")");
            expectSameTrackerState(tail.exportState(), want);
            EXPECT_EQ(tail_store.bytes(), whole_store.bytes());
            EXPECT_EQ(tail_store.rangeCount(), whole_store.rangeCount());
            ++resumed;
        }
    }
    EXPECT_GT(resumed, 100);
}

/**
 * The tentpole differential: over the whole registry, batched replay
 * must reproduce the per-event tracker bit for bit — verdicts, every
 * stats counter, exported tracker state and the backing TaintStorage's
 * operation counters. Batch sizes cover the degenerate single-record
 * chunk, a prime that divides no app's record count evenly, the
 * shipped default, and a per-app random size from a fixed seed.
 */
TEST(BatchPipeline, RegistryDifferentialAgainstPerEvent)
{
    std::mt19937 rng(20160402u);
    std::uniform_int_distribution<uint32_t> size_dist(2, 2048);
    core::PiftParams params;
    for (const auto &run : registryRuns()) {
        core::TaintStorage ref_store{core::TaintStorageParams{}};
        core::PiftTracker ref(params, ref_store);
        replay(run.trace, ref);
        const core::TrackerState ref_state = ref.exportState();

        uint32_t sizes[] = {1, 997, default_batch_records,
                            size_dist(rng)};
        for (uint32_t records : sizes) {
            core::TaintStorage store{core::TaintStorageParams{}};
            core::PiftTracker tracker(params, store);
            replayBatched(run.trace, tracker, records);
            EXPECT_EQ(tracker.anyLeak(), ref.anyLeak());
            expectSameTrackerStats(tracker.stats(), ref.stats());
            expectSameTrackerState(tracker.exportState(), ref_state);
            expectSameStorageStats(store.stats(), ref_store.stats());
        }
    }
}

/**
 * The indexed TaintStorage against the linear-scan reference
 * (reference_taint_storage.hh) over the whole registry: each app
 * replayed through PiftTracker over both must leave identical
 * verdicts, tracker stats and state, storage state and storage
 * counters — at the paper's geometry and at a 16-entry cache under
 * every policy, with and without coalescing, where eviction is
 * constant.
 */
TEST(IndexedStorage, RegistryDifferentialAgainstScan)
{
    core::PiftParams params;
    std::vector<core::TaintStorageParams> geometries = {
        core::TaintStorageParams{}};
    for (auto policy : {core::EvictPolicy::LruSpill,
                        core::EvictPolicy::LruDrop,
                        core::EvictPolicy::DropNew})
        for (bool coalesce : {true, false})
            geometries.push_back({16, policy, coalesce});
    for (const auto &geometry : geometries) {
        for (const auto &run : registryRuns()) {
            testref::ReferenceTaintStorage ref_store(geometry);
            core::PiftTracker ref(params, ref_store);
            replayBatched(run.trace, ref);
            core::TaintStorage store(geometry);
            core::PiftTracker tracker(params, store);
            replayBatched(run.trace, tracker);
            EXPECT_EQ(tracker.anyLeak(), ref.anyLeak());
            expectSameTrackerStats(tracker.stats(), ref.stats());
            expectSameTrackerState(tracker.exportState(),
                                   ref.exportState());
            EXPECT_TRUE(store.exportState() == ref_store.exportState());
            expectSameStorageStats(store.stats(), ref_store.stats());
        }
    }
}

namespace
{

/** Minimal machine mirroring the test_cpu harness. */
struct Machine
{
    Machine() : cpu(memory, hub) { hub.addSink(&buffer); }

    mem::Memory memory;
    EventHub hub;
    TraceBuffer buffer;
    Cpu cpu;
};

/** A store/load loop with enough distinct pcs to exercise a cache. */
isa::Program
loopProgram(Addr base, uint32_t iters)
{
    isa::Assembler a(base);
    a.movi(0, static_cast<int32_t>(iters)); // counter
    a.movi(1, 0x2000);                      // buffer base
    a.movi(2, 0xab);                        // store value
    a.label("loop");
    a.str(2, isa::memOff(1, 0));
    a.ldr(3, isa::memOff(1, 0));
    a.add(1, 1, isa::imm(4));
    a.add(2, 2, isa::imm(1));
    a.sub(0, 0, isa::imm(1), isa::Cond::Al, /*flags=*/true);
    a.b("loop", isa::Cond::Ne);
    a.halt();
    return a.finish();
}

std::string
runLoop(size_t decode_slots)
{
    Machine m;
    m.cpu.setDecodeCache(decode_slots);
    m.cpu.loadProgram(loopProgram(0x8000, 300));
    m.cpu.setPc(0x8000);
    m.cpu.run();
    return serialize(m.buffer.trace());
}

} // namespace

/**
 * The decode cache is invisible at every geometry: disabled, shipped
 * default, and a 2-slot cache where the loop body aliases every slot
 * and evicts constantly.
 */
TEST(DecodeCache, GeometryDifferentialAgainstUncached)
{
    std::string reference = runLoop(0);
    EXPECT_EQ(runLoop(4096), reference);
    EXPECT_EQ(runLoop(2), reference);
    EXPECT_EQ(runLoop(1), reference);
}

/** Loading more code flushes cached decodes; old programs still run. */
TEST(DecodeCache, SurvivesAdditionalProgramLoads)
{
    // Reference: both programs run on an uncached machine.
    Machine ref;
    ref.cpu.setDecodeCache(0);
    ref.cpu.loadProgram(loopProgram(0x8000, 50));
    ref.cpu.setPc(0x8000);
    ref.cpu.run();
    ref.cpu.loadProgram(loopProgram(0x20000, 50));
    ref.cpu.setPc(0x20000);
    ref.cpu.run();
    ref.cpu.setPc(0x8000);
    ref.cpu.run();
    std::string expected = serialize(ref.buffer.trace());

    // Cached machine: warm the cache on A, load B (flush), rerun both.
    Machine m;
    m.cpu.setDecodeCache(8); // tiny: loads force aliasing too
    m.cpu.loadProgram(loopProgram(0x8000, 50));
    m.cpu.setPc(0x8000);
    m.cpu.run();
    m.cpu.loadProgram(loopProgram(0x20000, 50));
    m.cpu.setPc(0x20000);
    m.cpu.run();
    m.cpu.setPc(0x8000);
    m.cpu.run();
    EXPECT_EQ(serialize(m.buffer.trace()), expected);
}

/** Resizing or disabling the cache between runs stays equivalent. */
TEST(DecodeCache, ReconfigureBetweenRuns)
{
    Machine ref;
    ref.cpu.setDecodeCache(0);
    ref.cpu.loadProgram(loopProgram(0x8000, 40));
    for (int i = 0; i < 3; ++i) {
        ref.cpu.setPc(0x8000);
        ref.cpu.run();
    }
    std::string expected = serialize(ref.buffer.trace());

    Machine m;
    m.cpu.loadProgram(loopProgram(0x8000, 40));
    m.cpu.setDecodeCache(64);
    m.cpu.setPc(0x8000);
    m.cpu.run();
    m.cpu.setDecodeCache(0); // drop to uncached mid-sequence
    m.cpu.setPc(0x8000);
    m.cpu.run();
    m.cpu.setDecodeCache(4); // re-enable, cold
    m.cpu.setPc(0x8000);
    m.cpu.run();
    EXPECT_EQ(serialize(m.buffer.trace()), expected);
}
