/**
 * @file
 * Durability-cost bench: what the write-ahead log and snapshot
 * machinery add to a live run, how fast a crashed directory comes
 * back, and a crash-point sweep summary (the same differential the
 * test suite proves, here sized up and exported as data).
 *
 * Emits BENCH_recovery.json (schemas/bench_recovery.schema.json).
 * The sweep counters are deterministic (seeded plan, fixed workload);
 * the timing fields are informational. The named checks at the end
 * of main() gate the invariants (exit 1), never wall-clock.
 *
 * Usage: bench_recovery [--reps N] [--out FILE] [--dir DIR]
 */

#include "bench/common.hh"
#include "bench/report.hh"

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "core/pift_tracker.hh"
#include "core/taint_storage.hh"
#include "faults/crash_point.hh"
#include "persist/durable.hh"
#include "persist/recovery.hh"
#include "persist/wal.hh"
#include "persist/wire.hh"
#include "sim/trace.hh"

using namespace pift;

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * A two-process taint workload big enough that journaling cost is
 * measurable: tainted loads, in- and out-of-window stores, periodic
 * sink checks. Deterministic by construction.
 */
sim::Trace
makeWorkload(int reps)
{
    sim::Trace t;
    SeqNum seq = 0;
    auto rec = [&](ProcId pid, sim::MemKind kind, Addr start) {
        sim::TraceRecord r;
        r.seq = seq;
        r.local_seq = seq;
        r.pid = pid;
        r.op = kind == sim::MemKind::Load ? isa::Op::Ldr
                                          : isa::Op::Str;
        r.mem_kind = kind;
        r.mem_start = start;
        r.mem_end = start + 3;
        t.records.push_back(r);
        ++seq;
    };
    auto ctl = [&](sim::ControlKind kind, ProcId pid, Addr start,
                   Addr len, uint32_t id) {
        sim::ControlEvent ev;
        ev.seq = seq;
        ev.kind = kind;
        ev.pid = pid;
        ev.start = start;
        ev.end = start + len - 1;
        ev.id = id;
        t.controls.push_back(ev);
    };
    ctl(sim::ControlKind::RegisterSource, 1, 0x1000, 64, 7);
    ctl(sim::ControlKind::RegisterSource, 2, 0x8000, 32, 8);
    for (int rep = 0; rep < reps; ++rep) {
        ProcId pid = (rep % 2) ? 2 : 1;
        Addr src = pid == 1 ? 0x1000 : 0x8000;
        Addr dst = (pid == 1 ? 0x2000 : 0x9000) +
            static_cast<Addr>(rep % 512) * 0x40;
        rec(pid, sim::MemKind::Load, src + (rep % 4) * 8);
        rec(pid, sim::MemKind::Store, dst);
        rec(pid, sim::MemKind::Store, dst + 0x10);
        rec(pid, sim::MemKind::Store, dst + 0x400);
        if (rep % 5 == 4)
            ctl(sim::ControlKind::CheckSink, pid, dst, 16,
                100 + static_cast<uint32_t>(rep));
    }
    return t;
}

core::TaintStorageParams
benchStorage()
{
    core::TaintStorageParams sp;
    sp.entries = 16; // small enough for steady spill traffic
    sp.policy = core::EvictPolicy::LruSpill;
    return sp;
}

/** Wall ms for one plain (journal-free) replay. */
double
replayPlain(const sim::Trace &trace)
{
    core::TaintStorage storage(benchStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    auto t0 = std::chrono::steady_clock::now();
    sim::replay(trace, tracker);
    return msSince(t0);
}

/** Wall ms for one durable replay; reports session facts once. */
double
replayDurable(const sim::Trace &trace, const std::string &dir,
              uint64_t snapshot_every, bool flush_each,
              uint64_t *records_logged = nullptr)
{
    core::TaintStorage storage(benchStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(
        storage, tracker, {dir, snapshot_every, flush_each});
    if (auto st = session.start(); !st.ok())
        pift_fatal("%s", st.message().c_str());
    tracker.setJournal(&session);
    auto t0 = std::chrono::steady_clock::now();
    sim::replay(trace, tracker);
    if (auto st = session.close(); !st.ok())
        pift_fatal("%s", st.message().c_str());
    double ms = msSince(t0);
    if (!session.healthy())
        pift_fatal("durable session unhealthy after bench replay");
    if (records_logged)
        *records_logged = session.recordsLogged();
    return ms;
}

/** Crash-sweep outcome counters (the differential, summarized). */
struct SweepSummary
{
    uint64_t points = 0;
    uint64_t exact = 0;
    uint64_t detected = 0;
    uint64_t silent_fn = 0;
    uint64_t false_positives = 0;
};

/** Golden artifacts plus final state for the sweep to compare with. */
struct Golden
{
    std::string dir;
    core::TaintStorageState storage;
    core::TrackerState tracker;
    uint64_t wal_bytes = 0;
    uint64_t snapshot_bytes = 0;
};

Golden
makeGolden(const sim::Trace &trace, const std::string &dir,
           uint64_t snapshot_every)
{
    Golden g;
    g.dir = dir;
    core::TaintStorage storage(benchStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(storage, tracker,
                                    {dir, snapshot_every, true});
    if (auto st = session.start(); !st.ok())
        pift_fatal("%s", st.message().c_str());
    tracker.setJournal(&session);
    sim::replay(trace, tracker);
    if (auto st = session.close(); !st.ok())
        pift_fatal("%s", st.message().c_str());
    g.storage = storage.exportState();
    g.tracker = tracker.exportState();
    std::string bytes;
    if (persist::readFileBytes(persist::walPath(dir), bytes).ok())
        g.wal_bytes = bytes.size();
    if (persist::readFileBytes(persist::snapshotPath(dir), bytes)
            .ok())
        g.snapshot_bytes = bytes.size();
    return g;
}

void
cloneGolden(const Golden &g, const std::string &dst)
{
    if (auto st = persist::ensureDir(dst); !st.ok())
        pift_fatal("%s", st.message().c_str());
    for (const char *name : {"snapshot.pift", "wal.pift"}) {
        std::string bytes;
        if (persist::readFileBytes(g.dir + "/" + name, bytes).ok())
            if (auto st = persist::writeFileBytes(dst + "/" + name,
                                                  bytes);
                !st.ok())
                pift_fatal("%s", st.message().c_str());
    }
}

/** One crash point end-to-end: crash, recover, resume, classify. */
void
runPoint(const Golden &g, const sim::Trace &trace,
         const faults::CrashPoint &point, const std::string &scratch,
         SweepSummary &sum)
{
    ++sum.points;
    cloneGolden(g, scratch);
    if (auto st = faults::applyCrashPoint(point, scratch); !st.ok())
        pift_fatal("crash point %s: %s",
                   faults::crashPointName(point).c_str(),
                   st.message().c_str());

    auto rec = persist::recover(scratch, benchStorage());
    core::TaintStorage storage(benchStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::restoreInto(rec, storage, tracker);
    sim::replayFrom(trace, tracker, rec.state.tracker.records_seen,
                    rec.state.tracker.controls_seen);

    auto fs = storage.exportState();
    auto ft = tracker.exportState();
    const auto &gs = g.tracker.sinks;
    const auto &rs = ft.sinks;
    if (gs.size() != rs.size()) {
        ++sum.silent_fn;
        return;
    }
    for (size_t i = 0; i < gs.size(); ++i) {
        bool gold_taint = gs[i].verdict == core::SinkVerdict::Tainted;
        if (gold_taint &&
            rs[i].verdict == core::SinkVerdict::Clean)
            ++sum.silent_fn;
        if (!gold_taint &&
            rs[i].verdict == core::SinkVerdict::Tainted)
            ++sum.false_positives;
    }
    if (!(fs == g.storage))
        return; // neither exact nor a clean detection: unclassified
    if (rec.corruption_detected)
        ++sum.detected;
    else if (ft.records_seen == g.tracker.records_seen &&
             ft.controls_seen == g.tracker.controls_seen &&
             ft.global_loss == g.tracker.global_loss)
        ++sum.exact;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int reps = 5;
    int workload_reps = 2000;
    std::string out_path = "BENCH_recovery.json";
    std::string dir = "bench_recovery.state";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--dir") && i + 1 < argc)
            dir = argv[++i];
        else
            pift_fatal("usage: bench_recovery [--reps N] [--out FILE]"
                       " [--dir DIR]");
    }

    benchx::Phase phase("durable state overhead and recovery",
                        "ISSUE 6 (snapshot + WAL + crash recovery)");
    setQuiet(true);

    sim::Trace trace = makeWorkload(workload_reps);
    std::printf("workload: %zu records, %zu control events\n",
                trace.records.size(), trace.controls.size());

    // --- 1. Journal overhead: plain vs WAL (buffered) vs WAL
    //        (flushed per record). Min-of-reps as in the telemetry
    //        bench: noise only ever inflates a rep.
    replayPlain(trace); // warm-up
    double plain_ms = 0.0, wal_ms = 0.0, wal_flush_ms = 0.0;
    uint64_t records_logged = 0;
    for (int r = 0; r < reps; ++r) {
        double p = replayPlain(trace);
        double w = replayDurable(trace, dir + "_wal", 0, false,
                                 &records_logged);
        double f = replayDurable(trace, dir + "_flush", 0, true);
        if (r == 0 || p < plain_ms)
            plain_ms = p;
        if (r == 0 || w < wal_ms)
            wal_ms = w;
        if (r == 0 || f < wal_flush_ms)
            wal_flush_ms = f;
    }
    double overhead_pct = plain_ms > 0.0
        ? 100.0 * (wal_ms - plain_ms) / plain_ms
        : 0.0;
    std::printf("\n%-28s %10.2f ms (min of %d)\n",
                "plain replay:", plain_ms, reps);
    std::printf("%-28s %10.2f ms (%llu records journaled)\n",
                "with WAL (buffered):", wal_ms,
                static_cast<unsigned long long>(records_logged));
    std::printf("%-28s %10.2f ms\n", "with WAL (flush each):",
                wal_flush_ms);
    std::printf("%-28s %9.1f %%\n", "journal overhead:",
                overhead_pct);

    // --- 2. Snapshot write / load cost at end-of-run state size.
    core::TaintStorage storage(benchStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    sim::replay(trace, tracker);
    persist::SnapshotData data;
    data.epoch = 1;
    data.storage = storage.exportState();
    data.tracker = tracker.exportState();
    std::string snap_path = dir + "_snap/snapshot.pift";
    if (auto st = persist::ensureDir(dir + "_snap"); !st.ok())
        pift_fatal("%s", st.message().c_str());
    double snap_write_ms = 0.0, snap_load_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        if (auto st = persist::writeSnapshotFile(snap_path, data);
            !st.ok())
            pift_fatal("%s", st.message().c_str());
        double w = msSince(t0);
        t0 = std::chrono::steady_clock::now();
        auto loaded = persist::readSnapshotFile(snap_path);
        double l = msSince(t0);
        if (!loaded.ok())
            pift_fatal("%s", loaded.message().c_str());
        if (r == 0 || w < snap_write_ms)
            snap_write_ms = w;
        if (r == 0 || l < snap_load_ms)
            snap_load_ms = l;
    }
    uint64_t snapshot_bytes = 0;
    {
        std::string bytes;
        if (persist::readFileBytes(snap_path, bytes).ok())
            snapshot_bytes = bytes.size();
    }
    std::printf("\n%-28s %10llu bytes\n", "snapshot size:",
                static_cast<unsigned long long>(snapshot_bytes));
    std::printf("%-28s %10.2f ms (atomic write)\n",
                "snapshot write:", snap_write_ms);
    std::printf("%-28s %10.2f ms (read + verify)\n",
                "snapshot load:", snap_load_ms);

    // --- 3. Recovery time vs surviving WAL length: truncate the
    //        epoch-0 WAL at fractions and time recover().
    Golden flat = makeGolden(trace, dir + "_flat", 0);
    struct RecoveryRow
    {
        uint64_t wal_records = 0;
        double ms = 0.0;
    };
    std::vector<RecoveryRow> recovery_rows;
    std::printf("\n%12s %12s\n", "wal_records", "recover_ms");
    for (int pct : {25, 50, 75, 100}) {
        std::string scratch = dir + "_cut" + std::to_string(pct);
        cloneGolden(flat, scratch);
        uint64_t frames =
            (flat.wal_bytes - persist::wal_header_bytes) /
            persist::wal_frame_bytes;
        uint64_t keep = frames * static_cast<uint64_t>(pct) / 100;
        faults::CrashPoint cut{faults::CrashTarget::Wal,
                               faults::CrashMode::Truncate,
                               persist::wal_header_bytes +
                                   keep * persist::wal_frame_bytes,
                               0};
        if (auto st = faults::applyCrashPoint(cut, scratch); !st.ok())
            pift_fatal("%s", st.message().c_str());
        RecoveryRow row;
        double best = 0.0;
        for (int r = 0; r < reps; ++r) {
            auto t0 = std::chrono::steady_clock::now();
            auto rec = persist::recover(scratch, benchStorage());
            double ms = msSince(t0);
            if (rec.corruption_detected)
                pift_fatal("clean truncation flagged as corruption");
            row.wal_records = rec.wal_applied;
            if (r == 0 || ms < best)
                best = ms;
        }
        row.ms = best;
        recovery_rows.push_back(row);
        std::printf("%12llu %12.2f\n",
                    static_cast<unsigned long long>(row.wal_records),
                    row.ms);
    }

    // --- 4. Crash-point sweep (the differential, summarized).
    Golden g = makeGolden(trace, dir + "_golden", 500);
    auto plan = faults::planCrashPoints(g.wal_bytes,
                                        g.snapshot_bytes, 0xbe9c4,
                                        48);
    SweepSummary sweep;
    for (size_t i = 0; i < plan.size(); ++i)
        runPoint(g, trace, plan[i], dir + "_pt" + std::to_string(i),
                 sweep);
    std::printf("\ncrash sweep: %llu points, %llu exact, "
                "%llu detected, %llu silent_fn, %llu false "
                "positives\n",
                static_cast<unsigned long long>(sweep.points),
                static_cast<unsigned long long>(sweep.exact),
                static_cast<unsigned long long>(sweep.detected),
                static_cast<unsigned long long>(sweep.silent_fn),
                static_cast<unsigned long long>(
                    sweep.false_positives));

    benchx::Report rep("bench_recovery");
    rep.field("records", trace.records.size(),
              "journal_records", records_logged,
              "wal_bytes", flat.wal_bytes,
              "wal_frame_bytes", persist::wal_frame_bytes,
              "wal_header_bytes", persist::wal_header_bytes,
              "snapshot_bytes", snapshot_bytes);
    rep.field("plain_ms", plain_ms, "wal_ms", wal_ms,
              "wal_flush_ms", wal_flush_ms,
              "journal_overhead_pct", overhead_pct,
              "snapshot_write_ms", snap_write_ms,
              "snapshot_load_ms", snap_load_ms);
    rep.array("recovery", recovery_rows.size(), [&](size_t i) {
        rep.field("wal_records", recovery_rows[i].wal_records,
                  "ms", recovery_rows[i].ms);
    });
    rep.object("crash_sweep", [&] {
        rep.field("points", sweep.points, "exact", sweep.exact,
                  "detected", sweep.detected,
                  "silent_fn", sweep.silent_fn,
                  "false_positives", sweep.false_positives);
    });

    rep.check("crash_sweep.silent_fn == 0", sweep.silent_fn == 0);
    rep.check("crash_sweep.false_positives == 0",
              sweep.false_positives == 0);
    rep.check("crash_sweep: exact + detected == points",
              sweep.exact + sweep.detected == sweep.points);
    rep.check("wal_bytes == header + frame * journal_records",
              flat.wal_bytes ==
                  persist::wal_header_bytes +
                      persist::wal_frame_bytes * records_logged);
    bool ascending = true;
    for (size_t i = 1; i < recovery_rows.size(); ++i)
        ascending = ascending && recovery_rows[i - 1].wal_records <=
                recovery_rows[i].wal_records;
    rep.check("recovery rows ascending in wal_records", ascending);
    return rep.finish(out_path);
}
