/**
 * @file
 * Tests for the multi-tenant tracking service (DESIGN.md §14):
 * session lifecycle, the service-vs-serial verdict differential,
 * backpressure degradation (never a silent drop), byte-ceiling
 * eviction and idle expiry (tombstones force MaybeTainted on
 * re-admission), per-session durability and its group commit, and
 * ThreadSanitizer-targeted stresses of concurrent attach/ingest/
 * detach/expire on a shared PID set.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "analysis/evaluate.hh"
#include "core/pift_tracker.hh"
#include "core/taint_storage.hh"
#include "droidbench/app.hh"
#include "exec/thread_pool.hh"
#include "persist/durable.hh"
#include "persist/recovery.hh"
#include "persist/wal.hh"
#include "persist/wire.hh"
#include "provenance/explain.hh"
#include "provenance/recorder.hh"
#include "service/service.hh"
#include "sim/trace.hh"
#include "telemetry/registry.hh"

using namespace pift;
using service::EventKind;
using service::ServiceEvent;

namespace
{

ServiceEvent
memEv(ProcId pid, EventKind kind, Addr start, Addr end, SeqNum lseq)
{
    ServiceEvent ev;
    ev.pid = pid;
    ev.kind = kind;
    ev.start = start;
    ev.end = end;
    ev.local_seq = lseq;
    return ev;
}

ServiceEvent
ctlEv(ProcId pid, EventKind kind, Addr start, Addr end, uint32_t id)
{
    ServiceEvent ev;
    ev.pid = pid;
    ev.kind = kind;
    ev.start = start;
    ev.end = end;
    ev.id = id;
    return ev;
}

/**
 * A small leaky workload for @p pid in its own address neighbourhood:
 * source [base, base+63], a load from it and a store propagating the
 * taint to base+4096 within the default window.
 */
std::vector<ServiceEvent>
leakyWorkload(ProcId pid)
{
    Addr base = 0x10000u + pid * 0x10000u;
    std::vector<ServiceEvent> evs;
    evs.push_back(ctlEv(pid, EventKind::Source, base, base + 63, 1));
    evs.push_back(memEv(pid, EventKind::Load, base, base + 3, 1));
    evs.push_back(memEv(pid, EventKind::Store, base + 4096,
                        base + 4099, 2));
    return evs;
}

/** A standalone tracker fed the events of one service session. */
struct SerialReference
{
    core::TaintStorage storage;
    core::PiftTracker tracker;
    ProcId pid;
    SeqNum records_fed = 0;

    SerialReference(ProcId pid_, const service::SessionConfig &cfg)
        : storage(cfg.storage), tracker(cfg.params, storage), pid(pid_)
    {
    }

    /** Session::apply's translation of one service event. */
    void
    apply(const ServiceEvent &ev)
    {
        if (ev.kind == EventKind::Load || ev.kind == EventKind::Store) {
            sim::TraceRecord rec;
            rec.seq = ++records_fed;
            rec.local_seq = ev.local_seq;
            rec.pid = pid;
            rec.mem_kind = ev.kind == EventKind::Load
                               ? sim::MemKind::Load
                               : sim::MemKind::Store;
            rec.mem_start = ev.start;
            rec.mem_end = ev.end;
            tracker.onRecord(rec);
            return;
        }
        sim::ControlEvent ctl;
        ctl.seq = records_fed;
        ctl.kind = ev.kind == EventKind::Source
                       ? sim::ControlKind::RegisterSource
                       : ev.kind == EventKind::Sink
                             ? sim::ControlKind::CheckSink
                             : sim::ControlKind::ClearAll;
        ctl.pid = pid;
        ctl.start = ev.start;
        ctl.end = ev.end;
        ctl.id = ev.id;
        tracker.onControl(ctl);
    }

    /** The verdict a sink check over [start, end] gets now. */
    core::SinkVerdict
    check(Addr start, Addr end, uint32_t id)
    {
        apply(ctlEv(pid, EventKind::Sink, start, end, id));
        return tracker.sinkResults().back().verdict;
    }
};

/**
 * A standalone DurableSession with flush_each = true, fed the events
 * of one service session: what the service's group-committed files
 * must equal byte for byte.
 */
struct PerRecordReference : SerialReference
{
    persist::DurableSession durable;

    PerRecordReference(ProcId pid_, const service::SessionConfig &cfg,
                       const std::string &dir)
        : SerialReference(pid_, cfg),
          durable(storage, tracker, {dir, cfg.snapshot_every, true})
    {
        EXPECT_TRUE(durable.start().ok());
        tracker.setJournal(&durable);
    }
};

/** The file's bytes, or "" when it cannot be read. */
std::string
fileBytes(const std::string &path)
{
    std::string bytes;
    (void)persist::readFileBytes(path, bytes);
    return bytes;
}

/** A fresh, empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(persist::ensureDir(dir).ok());
    return dir;
}

} // namespace

TEST(ServiceLifecycle, AttachSubmitPumpDetach)
{
    service::ServiceConfig cfg;
    cfg.shards = 4;
    service::TrackingService svc(cfg);

    EXPECT_TRUE(svc.attach(7));
    EXPECT_FALSE(svc.attach(7)) << "double attach";
    EXPECT_EQ(svc.pidState(7), service::PidState::Active);
    EXPECT_EQ(svc.pidState(8), service::PidState::Unknown);

    for (const auto &ev : leakyWorkload(7))
        EXPECT_TRUE(svc.submit(ev));
    svc.pump();

    // The propagated store is tainted at the sink; an unrelated
    // range is Clean (no degradation anywhere).
    Addr base = 0x10000u + 7 * 0x10000u;
    EXPECT_EQ(svc.checkSinkNow(7, base + 4096, base + 4099, 9),
              core::SinkVerdict::Tainted);
    EXPECT_EQ(svc.checkSinkNow(7, base + 9000, base + 9003, 10),
              core::SinkVerdict::Clean);

    auto sinks = svc.sinkResultsFor(7);
    ASSERT_EQ(sinks.size(), 2u);
    EXPECT_EQ(sinks[0].sink_id, 9u);
    EXPECT_TRUE(sinks[0].tainted);

    auto infos = svc.sessions();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].pid, 7u);
    EXPECT_GT(infos[0].storage_bytes, 0u);

    EXPECT_TRUE(svc.detach(7));
    EXPECT_FALSE(svc.detach(7));
    // Detach is clean (process exit): the pid is Unknown, not Shed.
    EXPECT_EQ(svc.pidState(7), service::PidState::Unknown);

    auto st = svc.stats();
    EXPECT_EQ(st.overflowed, 0u);
    EXPECT_EQ(st.accepted, st.drained);
    EXPECT_EQ(st.detached, 1u);
}

TEST(ServiceLifecycle, LazyAttachOnSubmit)
{
    service::TrackingService svc;
    EXPECT_TRUE(svc.submit(
        ctlEv(42, EventKind::Source, 0x100, 0x13f, 1)));
    svc.pump();
    EXPECT_EQ(svc.pidState(42), service::PidState::Active);
    EXPECT_EQ(svc.checkSinkNow(42, 0x100, 0x103, 2),
              core::SinkVerdict::Tainted);
}

TEST(ServiceDifferential, MatchesSerialReplayOnRegistryApps)
{
    // The core correctness claim: multiplexing an app through the
    // service (re-pidded, memory events + controls only) yields the
    // same (sink_id, tainted, verdict) sequence as a dedicated
    // serial replay of the captured trace.
    service::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.queue_capacity = 1u << 16;
    service::TrackingService svc(cfg);

    const auto &apps = droidbench::droidBenchApps();
    size_t tested = 0;
    for (size_t i = 0; i < apps.size() && tested < 12; ++i, ++tested) {
        auto run = droidbench::runApp(apps[i]);
        ProcId pid = static_cast<ProcId>(1000 + i);
        auto evs = service::eventsFromTrace(run.trace, pid);
        // Chunked at half the queue bound and pumped between chunks:
        // a well-paced producer never overflows, so this is the
        // zero-fault differential.
        const size_t chunk = cfg.queue_capacity / 2;
        for (size_t off = 0; off < evs.size(); off += chunk) {
            size_t n = std::min(chunk, evs.size() - off);
            ASSERT_EQ(svc.submitMany(evs.data() + off, n), n);
            svc.pump();
        }

        core::TaintStorage store(cfg.session.storage);
        core::PiftTracker ref(cfg.session.params, store);
        sim::replay(run.trace, ref);

        auto got = svc.sinkResultsFor(pid);
        const auto &want = ref.sinkResults();
        ASSERT_EQ(got.size(), want.size()) << apps[i].name;
        for (size_t k = 0; k < want.size(); ++k) {
            EXPECT_EQ(got[k].sink_id, want[k].sink_id)
                << apps[i].name;
            EXPECT_EQ(got[k].tainted, want[k].tainted)
                << apps[i].name << " sink " << k;
            EXPECT_EQ(got[k].verdict, want[k].verdict)
                << apps[i].name << " sink " << k;
        }
    }
    EXPECT_GE(tested, 8u);
    EXPECT_EQ(svc.stats().overflowed, 0u);
}

TEST(ServiceBackpressure, OverflowDegradesToMaybeTaintedNeverSilent)
{
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.queue_capacity = 4; // tiny: force overflow
    cfg.session.provenance = true;
    service::TrackingService svc(cfg);

    // Fill the queue past capacity without draining.
    EXPECT_TRUE(svc.submit(
        ctlEv(5, EventKind::Source, 0x1000, 0x103f, 1)));
    size_t refused = 0;
    for (SeqNum i = 0; i < 16; ++i)
        if (!svc.submit(
                memEv(5, EventKind::Load, 0x1000, 0x1003, i + 1)))
            ++refused;
    EXPECT_GT(refused, 0u) << "queue should have overflowed";
    svc.pump();

    auto st = svc.stats();
    EXPECT_EQ(st.overflowed, refused);
    EXPECT_GT(st.loss_marks, 0u);

    // The pid lost events, so a negative check must answer
    // MaybeTainted — taint could have moved through the gap — while
    // a positive check stays Tainted (FP=0 semantics intact).
    EXPECT_EQ(svc.checkSinkNow(5, 0x9000, 0x9003, 7),
              core::SinkVerdict::MaybeTainted);
    EXPECT_EQ(svc.checkSinkNow(5, 0x1000, 0x1003, 8),
              core::SinkVerdict::Tainted);

    // An unaffected tenant in the same shard stays Clean.
    EXPECT_TRUE(svc.submit(
        ctlEv(6, EventKind::Source, 0x2000, 0x203f, 1)));
    svc.pump();
    EXPECT_EQ(svc.checkSinkNow(6, 0x8000, 0x8003, 9),
              core::SinkVerdict::Clean);

    // The degradation is attributable: the flight recorder holds a
    // StreamLoss record for the pid, so `pift_cli explain` can cite
    // the backpressure drop behind the MaybeTainted verdict.
    if (provenance::compiledIn()) {
        const provenance::Recorder *rec = svc.recorderFor(5);
        ASSERT_NE(rec, nullptr);
        bool saw_loss = false;
        for (const auto &r : rec->recordsFor(5))
            if (r.kind == provenance::ProvKind::StreamLoss)
                saw_loss = true;
        EXPECT_TRUE(saw_loss);

        auto expl = provenance::explainPid(*rec, 5);
        bool maybe_with_cause = false;
        for (const auto &e : expl)
            if (e.verdict == static_cast<uint8_t>(
                                 core::SinkVerdict::MaybeTainted) &&
                e.has_cause)
                maybe_with_cause = true;
        EXPECT_TRUE(maybe_with_cause);
    }
}

TEST(ServiceBackpressure, QueuedClearCannotEraseLaterLoss)
{
    // Ordering regression: a ClearAll accepted *before* an overflow
    // drains *after* the loss mark was applied to the tracker. The
    // drop postdates the clear, so the clear must not launder it —
    // the shard restores the mark when the Clear drains.
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.queue_capacity = 2;
    service::TrackingService svc(cfg);

    ASSERT_TRUE(svc.submit(
        ctlEv(5, EventKind::Source, 0x1000, 0x103f, 1)));
    ASSERT_TRUE(svc.submit(ctlEv(5, EventKind::Clear, 0, 0, 0)));
    // Queue full: this drop happens after the queued Clear.
    ASSERT_FALSE(svc.submit(
        memEv(5, EventKind::Load, 0x1000, 0x1003, 1)));
    svc.pump();

    // The dropped event could have moved taint in post-Clear state;
    // a negative check answering Clean would be a silent FN.
    EXPECT_EQ(svc.checkSinkNow(5, 0x9000, 0x9003, 7),
              core::SinkVerdict::MaybeTainted);
}

TEST(ServiceBackpressure, ClearAcceptedAfterLossRetiresIt)
{
    // The converse ordering: a Clear accepted *after* the overflow
    // wipes every byte the dropped event could have touched, so the
    // loss is moot and Clean answers are trustworthy again.
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.queue_capacity = 2;
    service::TrackingService svc(cfg);

    ASSERT_TRUE(svc.submit(
        memEv(5, EventKind::Load, 0x1000, 0x1003, 1)));
    ASSERT_TRUE(svc.submit(
        memEv(5, EventKind::Load, 0x1004, 0x1007, 2)));
    ASSERT_FALSE(svc.submit(
        memEv(5, EventKind::Load, 0x1008, 0x100b, 3)));
    svc.pump();
    EXPECT_EQ(svc.checkSinkNow(5, 0x9000, 0x9003, 7),
              core::SinkVerdict::MaybeTainted);

    ASSERT_TRUE(svc.submit(ctlEv(5, EventKind::Clear, 0, 0, 0)));
    svc.pump();
    EXPECT_EQ(svc.checkSinkNow(5, 0x9000, 0x9003, 8),
              core::SinkVerdict::Clean);
}

TEST(ServiceBackpressure, DrainNeverMovesLastActiveBack)
{
    // The refused load touches pid 5 with its loss tick (3) before
    // the drain applies the queued loads at ticks 1 and 2. Expiry
    // and eviction order sessions by last_active, so it must stay 3.
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.queue_capacity = 2;
    service::TrackingService svc(cfg);

    ASSERT_TRUE(svc.submit(
        memEv(5, EventKind::Load, 0x1000, 0x1003, 1)));
    ASSERT_TRUE(svc.submit(
        memEv(5, EventKind::Load, 0x1004, 0x1007, 2)));
    ASSERT_FALSE(svc.submit(
        memEv(5, EventKind::Load, 0x1008, 0x100b, 3)));
    auto before = svc.sessions();
    ASSERT_EQ(before.size(), 1u);
    EXPECT_EQ(before[0].last_active, 3u);

    svc.pump();
    auto after = svc.sessions();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].last_active, 3u);
}

TEST(ServiceBackpressure, RefusalInsideARunKeepsTheAcceptedPrefix)
{
    // One submitMany run over one shard crosses the queue bound part
    // way. The queue takes exactly the prefix that fits; every later
    // event is refused and marks its pid lost, each drawing the next
    // tick. Pid 1 appears only in the prefix, pid 4 only after it,
    // pids 2 and 3 on both sides; the prefix holds a Clear for pid 2
    // at the larger bounds.
    for (size_t cap : {size_t{1}, size_t{3}, size_t{4096}}) {
        SCOPED_TRACE("queue_capacity " + std::to_string(cap));
        service::ServiceConfig cfg;
        cfg.shards = 1;
        cfg.queue_capacity = cap;
        service::TrackingService svc(cfg);

        std::vector<ServiceEvent> evs;
        SeqNum lseq[5] = {};
        auto push = [&](ProcId pid) {
            const Addr base = 0x10000u + pid * 0x10000u;
            const SeqNum k = lseq[pid]++;
            const Addr off = (k / 4 % 16) * 64;
            switch (k % 4) {
              case 0:
                evs.push_back(ctlEv(pid, EventKind::Source, base + off,
                                    base + off + 63, 1));
                break;
              case 1:
                evs.push_back(memEv(pid, EventKind::Load, base + off,
                                    base + off + 3, k));
                break;
              case 2:
                evs.push_back(memEv(pid, EventKind::Store,
                                    base + 4096 + off,
                                    base + 4099 + off, k + 1));
                break;
              default:
                evs.push_back(memEv(pid, EventKind::Load, base + 8192,
                                    base + 8195, k + 8));
                break;
            }
        };
        for (size_t i = 0; i < cap; ++i) {
            push(static_cast<ProcId>(1 + i % 3));
            if (i == cap / 2 && cap > 3)
                evs.push_back(ctlEv(2, EventKind::Clear, 0, 0, 0));
        }
        const size_t accepted = std::min(cap, evs.size());
        evs.resize(accepted);
        for (size_t i = 0; i < 9; ++i)
            push(i == 4 ? 4 : static_cast<ProcId>(2 + i % 2));

        ASSERT_EQ(svc.submitMany(evs.data(), evs.size()), accepted);
        EXPECT_EQ(svc.clock(), evs.size());
        auto st = svc.stats();
        EXPECT_EQ(st.accepted, accepted);
        EXPECT_EQ(st.overflowed, evs.size() - accepted);
        EXPECT_EQ(st.loss_marks, evs.size() - accepted);

        // Before the drain only the refused pids have sessions, each
        // degraded and last active at its last refusal's tick.
        std::map<ProcId, uint64_t> last_refusal;
        for (size_t i = accepted; i < evs.size(); ++i)
            last_refusal[evs[i].pid] = i + 1;
        auto infos = svc.sessions();
        ASSERT_EQ(infos.size(), last_refusal.size());
        for (const auto &info : infos) {
            EXPECT_TRUE(info.degraded) << info.pid;
            EXPECT_EQ(info.last_active, last_refusal[info.pid])
                << info.pid;
            EXPECT_EQ(info.events, 0u) << info.pid;
        }
        svc.pump();

        // The serial reference: each pid's accepted events, then a
        // loss mark for each refusal, which postdates all of them.
        for (ProcId pid = 1; pid <= 4; ++pid) {
            ASSERT_EQ(svc.pidState(pid), service::PidState::Active);
            SerialReference ref(pid, cfg.session);
            for (size_t i = 0; i < accepted; ++i)
                if (evs[i].pid == pid)
                    ref.apply(evs[i]);
            for (size_t i = accepted; i < evs.size(); ++i)
                if (evs[i].pid == pid)
                    ref.tracker.noteStreamLoss(pid);
            const Addr base = 0x10000u + pid * 0x10000u;
            uint32_t id = 100;
            for (Addr off : {Addr{0}, Addr{4096}, Addr{8192},
                             Addr{0x8000}}) {
                for (Addr at : {base + off, base + off + 64 * 15}) {
                    EXPECT_EQ(svc.checkSinkNow(pid, at, at + 3, id),
                              ref.check(at, at + 3, id))
                        << "pid " << pid << " at " << at;
                    ++id;
                }
            }
        }
        // Pid 1 saw no refusal: its answers are exact and undegraded.
        for (const auto &info : svc.sessions())
            EXPECT_EQ(info.degraded, info.pid != 1) << info.pid;
        EXPECT_EQ(svc.stats().drained, accepted);
    }
}

TEST(ServiceTelemetry, SinkLatencyResolvesChecksUnderAMicrosecond)
{
    // checkSinkNow on a drained shard takes well under a microsecond;
    // the histogram records nanoseconds from a 64 ns first bound, so
    // such checks spread over its buckets instead of all reading 0.
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    service::TrackingService svc;
    for (const auto &ev : leakyWorkload(3))
        ASSERT_TRUE(svc.submit(ev));
    svc.pump();
    // The service registered the histogram with its bounds by now.
    auto &h = telemetry::histogram("service.sink.latency_ns");
    ASSERT_EQ(h.bounds().size(), 16u);
    EXPECT_EQ(h.bounds().front(), 64u);
    EXPECT_EQ(h.bounds().back(), 64u << 15);
    const uint64_t count0 = h.count();
    const uint64_t first0 = h.bucketCount(0);
    const unsigned n = 200;
    const Addr base = 0x10000u + 3 * 0x10000u;
    for (unsigned i = 0; i < n; ++i)
        (void)svc.checkSinkNow(3, base + 4096, base + 4099, i);
    EXPECT_EQ(h.count() - count0, n);
    EXPECT_LT(h.bucketCount(0) - first0, n);
}

TEST(ServiceThreaded, NarrowPoolMultiplexesAllShards)
{
    // A pool narrower than the shard count must still serve every
    // shard: workers multiplex shards [i, i+n, ...] with timed
    // waits, so no queue is orphaned until shutdown.
    service::ServiceConfig cfg;
    cfg.shards = 4;
    service::TrackingService svc(cfg);

    exec::ThreadPool pool(2); // 2 participants < 4 shards
    std::thread workers([&] { svc.runWorkers(pool); });

    size_t expect = 0;
    for (ProcId pid = 1; pid <= 8; ++pid) {
        for (const auto &ev : leakyWorkload(pid)) {
            ASSERT_TRUE(svc.submit(ev));
            ++expect;
        }
    }
    // Workers (not this thread) must drain all four shards.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc.stats().drained < expect &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(svc.stats().drained, expect)
        << "unclaimed shards never drained";

    svc.stop();
    workers.join();

    for (ProcId pid = 1; pid <= 8; ++pid) {
        Addr base = 0x10000u + pid * 0x10000u;
        EXPECT_EQ(svc.checkSinkNow(pid, base + 4096, base + 4099,
                                   300 + pid),
                  core::SinkVerdict::Tainted);
    }
}

TEST(ServiceThreaded, StopBeforeWorkersStartStillEndsTheRun)
{
    // A caller starts runWorkers on its own thread, so its stop() can
    // land before that thread gets going. The run must still end
    // (after draining what is queued) instead of parking its workers
    // for good.
    service::ServiceConfig cfg;
    cfg.shards = 2;
    service::TrackingService svc(cfg);
    for (const auto &ev : leakyWorkload(3))
        ASSERT_TRUE(svc.submit(ev));
    svc.stop();
    exec::ThreadPool pool(cfg.shards + 1);
    std::thread workers([&] { svc.runWorkers(pool); });
    workers.join();
    EXPECT_EQ(svc.stats().drained, svc.stats().accepted);

    // The stop was consumed: a later run serves events until its own.
    std::thread again([&] { svc.runWorkers(pool); });
    ASSERT_TRUE(svc.submit(memEv(3, EventKind::Load, 0x20000,
                                 0x20003, 9)));
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc.stats().drained < svc.stats().accepted &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(svc.stats().drained, svc.stats().accepted);
    svc.stop();
    again.join();
}

TEST(ServiceEviction, CeilingShedsLruAndForcesStateLossOnReturn)
{
    service::ServiceConfig cfg;
    cfg.shards = 2;
    cfg.memory_ceiling = 3 * 64; // three 64-byte sources fit, not 6
    service::TrackingService svc(cfg);

    // Six tenants, each holding 64 tainted bytes; pids ingest in
    // order, so pid 1 is the least recently active.
    for (ProcId pid = 1; pid <= 6; ++pid) {
        for (const auto &ev : leakyWorkload(pid))
            ASSERT_TRUE(svc.submit(ev));
        svc.pump();
    }
    auto before = svc.stats();
    EXPECT_GT(before.storage_bytes, cfg.memory_ceiling);

    svc.maintain();

    auto after = svc.stats();
    EXPECT_GT(after.evicted, 0u);
    EXPECT_LE(after.storage_bytes, cfg.memory_ceiling);

    // Least-recently-active pids were shed, most recent survived.
    EXPECT_EQ(svc.pidState(1), service::PidState::Shed);
    EXPECT_EQ(svc.pidState(6), service::PidState::Active);

    // An evicted tenant's sinks can never be silently Clean: the
    // re-admitted session declares state loss first.
    Addr base1 = 0x10000u + 1 * 0x10000u;
    EXPECT_EQ(svc.checkSinkNow(1, base1 + 4096, base1 + 4099, 50),
              core::SinkVerdict::MaybeTainted);
    // A surviving tenant still answers exactly.
    Addr base6 = 0x10000u + 6 * 0x10000u;
    EXPECT_EQ(svc.checkSinkNow(6, base6 + 4096, base6 + 4099, 51),
              core::SinkVerdict::Tainted);
    EXPECT_EQ(svc.checkSinkNow(6, base6 + 9000, base6 + 9003, 52),
              core::SinkVerdict::Clean);
}

TEST(ServiceEviction, PressureDifferentialFpZeroNoSilentFn)
{
    // Eviction under sustained pressure: every genuinely leaky pid
    // must report Tainted or MaybeTainted (no silent FN), and no
    // clean pid may report Tainted (FP=0) — whatever the eviction
    // policy sheds.
    service::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.memory_ceiling = 8 * 64;
    service::TrackingService svc(cfg);

    const ProcId npids = 32;
    for (ProcId pid = 1; pid <= npids; ++pid) {
        bool leaky = pid % 2 == 1;
        if (leaky) {
            for (const auto &ev : leakyWorkload(pid))
                ASSERT_TRUE(svc.submit(ev));
        } else {
            Addr base = 0x10000u + pid * 0x10000u;
            ASSERT_TRUE(svc.submit(
                memEv(pid, EventKind::Load, base, base + 3, 1)));
            ASSERT_TRUE(svc.submit(memEv(pid, EventKind::Store,
                                         base + 8, base + 11, 2)));
        }
        svc.pump();
        svc.maintain(); // keep the ceiling enforced while ingesting
    }
    ASSERT_GT(svc.stats().evicted, 0u)
        << "pressure must actually trigger eviction";

    for (ProcId pid = 1; pid <= npids; ++pid) {
        Addr base = 0x10000u + pid * 0x10000u;
        auto v = svc.checkSinkNow(pid, base + 4096, base + 4099,
                                  100 + pid);
        bool leaky = pid % 2 == 1;
        if (leaky)
            EXPECT_NE(v, core::SinkVerdict::Clean)
                << "silent FN for leaky pid " << pid;
        else
            EXPECT_NE(v, core::SinkVerdict::Tainted)
                << "FP for clean pid " << pid;
    }
}

TEST(ServiceExpiry, IdleSessionsExpireCleanOrTombstoned)
{
    service::ServiceConfig cfg;
    cfg.shards = 2;
    cfg.expire_idle_ticks = 8;
    service::TrackingService svc(cfg);

    // pid 1: holds taint. pid 2: touched memory but holds nothing.
    for (const auto &ev : leakyWorkload(1))
        ASSERT_TRUE(svc.submit(ev));
    ASSERT_TRUE(svc.submit(
        memEv(2, EventKind::Load, 0x500000, 0x500003, 1)));
    svc.pump();

    // Advance the logical clock well past the idle horizon with a
    // third tenant's traffic.
    for (SeqNum i = 0; i < 32; ++i)
        ASSERT_TRUE(svc.submit(
            memEv(3, EventKind::Load, 0x600000, 0x600003, i + 1)));
    svc.pump();
    svc.maintain();

    auto st = svc.stats();
    EXPECT_EQ(st.expired, 2u);
    // Taint-free and undegraded: a clean goodbye.
    EXPECT_EQ(svc.pidState(2), service::PidState::Unknown);
    // Held taint: expiring it loses state, so the pid is tombstoned
    // and must come back MaybeTainted.
    EXPECT_EQ(svc.pidState(1), service::PidState::Shed);
    EXPECT_EQ(svc.checkSinkNow(1, 0x900000, 0x900003, 60),
              core::SinkVerdict::MaybeTainted);
    EXPECT_EQ(svc.pidState(3), service::PidState::Active);
}

TEST(ServiceDurability, SessionsJournalIntoPerPidDirectories)
{
    std::string dir = ::testing::TempDir() + "/pift_service_durable";
    service::ServiceConfig cfg;
    cfg.shards = 2;
    cfg.session.durable_dir = dir;
    cfg.session.snapshot_every = 2;
    {
        service::TrackingService svc(cfg);
        for (const auto &ev : leakyWorkload(9))
            ASSERT_TRUE(svc.submit(ev));
        svc.pump();
        EXPECT_TRUE(svc.detach(9)); // closes the durable session
    }
    // The per-pid directory holds a recoverable snapshot/WAL pair:
    // the snapshot cadence fired (every 2 journal records) and the
    // WAL was flushed on close.
    std::string snap, wal;
    EXPECT_TRUE(persist::readFileBytes(
                    persist::snapshotPath(dir + "/pid_9"), snap)
                    .ok());
    EXPECT_FALSE(snap.empty());
    EXPECT_TRUE(
        persist::readFileBytes(persist::walPath(dir + "/pid_9"), wal)
            .ok());
}

TEST(ServiceDurability, GroupCommitWritesTheFilesOfPerRecordFlush)
{
    // Group commit changes when journal bytes reach the file, never
    // which bytes: for every registry app, a service session's WAL
    // and snapshot after detach equal those of a standalone session
    // that flushes every record, fed the same stream and probes.
    const std::string root = freshDir("pift_group_commit_files");
    service::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.session.durable_dir = root + "/svc";
    cfg.session.snapshot_every = 4096;
    service::TrackingService svc(cfg);

    std::vector<const droidbench::AppEntry *> apps;
    for (const auto *list :
         {&droidbench::droidBenchApps(), &droidbench::malwareApps()})
        for (const auto &entry : *list)
            apps.push_back(&entry);
    size_t snapshotted = 0;
    for (size_t i = 0; i < apps.size(); ++i) {
        const ProcId pid = static_cast<ProcId>(100 + i);
        const std::string name = apps[i]->name;
        auto evs = service::eventsFromTrace(
            droidbench::runApp(*apps[i]).trace, pid);
        const std::string ref_dir = root + "/ref_" + std::to_string(pid);
        PerRecordReference ref(pid, cfg.session, ref_dir);
        // Batches of 1,000 events, each followed by a probe of its
        // last event's range, whose record waits for the next drain.
        const size_t chunk = 1000;
        for (size_t off = 0; off < evs.size(); off += chunk) {
            const size_t n = std::min(chunk, evs.size() - off);
            ASSERT_EQ(svc.submitMany(evs.data() + off, n), n) << name;
            svc.pump();
            for (size_t k = off; k < off + n; ++k)
                ref.apply(evs[k]);
            const ServiceEvent &last = evs[off + n - 1];
            ServiceEvent probe =
                ctlEv(pid, EventKind::Sink, last.start, last.end,
                      static_cast<uint32_t>(50000 + off / chunk));
            ref.apply(probe);
            EXPECT_EQ(svc.checkSinkNow(pid, probe.start, probe.end,
                                       probe.id),
                      ref.tracker.sinkResults().back().verdict)
                << name;
        }
        ASSERT_TRUE(svc.detach(pid)) << name;
        ASSERT_TRUE(ref.durable.close().ok()) << name;

        const std::string dir =
            cfg.session.durable_dir + "/pid_" + std::to_string(pid);
        const std::string wal = fileBytes(persist::walPath(dir));
        const std::string want_wal = fileBytes(persist::walPath(ref_dir));
        EXPECT_GT(want_wal.size(), persist::wal_header_bytes) << name;
        EXPECT_TRUE(wal == want_wal)
            << name << ": WAL " << wal.size() << " vs "
            << want_wal.size() << " bytes";
        const std::string snap = fileBytes(persist::snapshotPath(dir));
        const std::string want_snap =
            fileBytes(persist::snapshotPath(ref_dir));
        EXPECT_TRUE(snap == want_snap)
            << name << ": snapshot " << snap.size() << " vs "
            << want_snap.size() << " bytes";
        if (!want_snap.empty())
            ++snapshotted;
    }
    EXPECT_EQ(apps.size(), 64u);
    // The large apps rotated their WALs through snapshots.
    EXPECT_GT(snapshotted, 0u);
    std::filesystem::remove_all(root);
}

TEST(ServiceDurability, DrainedBatchIsOnDiskWhenPumpReturns)
{
    // The durability window: a drained batch is in the WAL file as
    // soon as pump() returns, with no flush; a sink check's record
    // waits for the shard's next non-empty drain, or the detach.
    const std::string root = freshDir("pift_group_commit_window");
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.session.durable_dir = root + "/svc";
    service::TrackingService svc(cfg);
    const ProcId pid = 9;
    PerRecordReference ref(pid, cfg.session, root + "/ref");
    const std::string wal = persist::walPath(
        cfg.session.durable_dir + "/pid_" + std::to_string(pid));
    const std::string ref_wal = persist::walPath(root + "/ref");

    auto evs = leakyWorkload(pid);
    ASSERT_EQ(svc.submitMany(evs.data(), evs.size()), evs.size());
    svc.pump();
    for (const auto &ev : evs)
        ref.apply(ev);
    const std::string batch = fileBytes(ref_wal);
    ASSERT_GT(batch.size(), persist::wal_header_bytes);
    EXPECT_TRUE(fileBytes(wal) == batch);

    const Addr base = 0x10000u + pid * 0x10000u;
    const ServiceEvent check =
        ctlEv(pid, EventKind::Sink, base + 4096, base + 4099, 77);
    EXPECT_EQ(svc.checkSinkNow(pid, check.start, check.end, check.id),
              core::SinkVerdict::Tainted);
    ref.apply(check);
    ASSERT_EQ(fileBytes(ref_wal).size(),
              batch.size() + persist::wal_frame_bytes);
    EXPECT_TRUE(fileBytes(wal) == batch);
    svc.pump(); // an empty drain commits nothing
    EXPECT_TRUE(fileBytes(wal) == batch);

    // Another pid's batch on the same shard commits the check.
    ASSERT_TRUE(svc.submit(memEv(pid + 1, EventKind::Load, 0x900000,
                                 0x900003, 1)));
    svc.pump();
    EXPECT_TRUE(fileBytes(wal) == fileBytes(ref_wal));

    // A check followed by the session's own batch.
    const ServiceEvent check2 =
        ctlEv(pid, EventKind::Sink, base, base + 3, 78);
    const ServiceEvent load =
        memEv(pid, EventKind::Load, base, base + 3, 3);
    EXPECT_EQ(svc.checkSinkNow(pid, check2.start, check2.end, check2.id),
              core::SinkVerdict::Tainted);
    ref.apply(check2);
    EXPECT_LT(fileBytes(wal).size(), fileBytes(ref_wal).size());
    ASSERT_TRUE(svc.submit(load));
    svc.pump();
    ref.apply(load);
    EXPECT_TRUE(fileBytes(wal) == fileBytes(ref_wal));

    // Detach commits a pending check.
    const ServiceEvent check3 =
        ctlEv(pid, EventKind::Sink, 0x700000, 0x700003, 79);
    EXPECT_EQ(svc.checkSinkNow(pid, check3.start, check3.end, check3.id),
              core::SinkVerdict::Clean);
    ref.apply(check3);
    EXPECT_LT(fileBytes(wal).size(), fileBytes(ref_wal).size());
    ASSERT_TRUE(svc.detach(pid));
    EXPECT_TRUE(fileBytes(wal) == fileBytes(ref_wal));
    std::filesystem::remove_all(root);
}

TEST(ServiceDurability, LossMarkOutsideADrainCommitsWithTheNextBatch)
{
    // A refused event journals its pid's StreamLoss at submit time,
    // outside any drain. The shard's next batch commits it even when
    // that batch holds no event of the refused pid.
    const std::string root = freshDir("pift_group_commit_loss");
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.queue_capacity = 1;
    cfg.session.durable_dir = root;
    service::TrackingService svc(cfg);
    ASSERT_TRUE(svc.attach(2));
    ASSERT_TRUE(svc.submit(
        memEv(1, EventKind::Load, 0x500000, 0x500003, 1)));
    ASSERT_FALSE(svc.submit(
        memEv(2, EventKind::Load, 0x600000, 0x600003, 1)));
    const std::string wal = persist::walPath(root + "/pid_2");
    ASSERT_TRUE(persist::readWalFile(wal).ok());
    EXPECT_TRUE(persist::readWalFile(wal).value().records.empty());
    svc.pump();
    auto after = persist::readWalFile(wal);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after.value().records.size(), 1u);
    EXPECT_EQ(after.value().records[0].kind,
              core::JournalKind::StreamLoss);
    EXPECT_EQ(after.value().records[0].pid, 2u);
    std::filesystem::remove_all(root);
}

TEST(ServiceDurability, FailedCommitIsCountedAndSessionKeepsAnswering)
{
    // A commit that fails after append() had buffered the records
    // must mark the session's journal unhealthy, count once in
    // persist.io_failures_total and leave the live session
    // answering from memory. The failure is made in this process:
    // its file-size limit is capped at the WAL's current size, with
    // SIGXFSZ ignored so the write fails with EFBIG instead.
    const std::string root = freshDir("pift_group_commit_failure");
    service::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.session.durable_dir = root;
    service::TrackingService svc(cfg);
    const ProcId pid = 5;
    const std::string wal =
        persist::walPath(root + "/pid_" + std::to_string(pid));
    auto evs = leakyWorkload(pid);
    ASSERT_EQ(svc.submitMany(evs.data(), evs.size()), evs.size());
    svc.pump();
    const auto committed = persist::readWalFile(wal);
    ASSERT_TRUE(committed.ok());
    ASSERT_FALSE(committed.value().records.empty());

    auto &failures = telemetry::counter("persist.io_failures_total");
    const uint64_t before = failures.value();
    const Addr base = 0x10000u + pid * 0x10000u;
    const ServiceEvent tainted_load =
        memEv(pid, EventKind::Load, base, base + 3, 3);

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved;
    capped.rlim_cur = std::filesystem::file_size(wal);
    const bool limited = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
    if (limited) {
        (void)svc.submit(tainted_load);
        svc.pump();
    }
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, saved_handler);
    ASSERT_TRUE(limited);

    auto infos = svc.sessions();
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_FALSE(infos[0].durable_healthy);
    if (telemetry::compiledIn()) {
        EXPECT_EQ(failures.value(), before + 1);
    }

    // Sticky: later batches neither write nor count again.
    ASSERT_TRUE(svc.submit(tainted_load));
    svc.pump();
    if (telemetry::compiledIn()) {
        EXPECT_EQ(failures.value(), before + 1);
    }

    // The live session still answers from memory, Tainted and Clean.
    EXPECT_EQ(svc.checkSinkNow(pid, base + 4096, base + 4099, 90),
              core::SinkVerdict::Tainted);
    EXPECT_EQ(svc.checkSinkNow(pid, 0x700000, 0x700003, 91),
              core::SinkVerdict::Clean);
    EXPECT_TRUE(svc.detach(pid));

    // The file keeps the committed prefix, whole frames only.
    const auto after = persist::readWalFile(wal);
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after.value().header_ok);
    EXPECT_FALSE(after.value().torn) << after.value().detail;
    EXPECT_EQ(after.value().records.size(),
              committed.value().records.size());
    std::filesystem::remove_all(root);
}

TEST(ServiceStress, ConcurrentAttachIngestDetachExpire)
{
    // The TSan target: producers, lifecycle chaos, sink checks and
    // maintenance all race against the per-shard workers on one
    // shared PID set. Assertions are consistency properties that
    // hold under any interleaving.
    service::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.queue_capacity = 64; // small enough to exercise overflow
    cfg.expire_idle_ticks = 50000;
    cfg.memory_ceiling = 16 * 64;
    service::TrackingService svc(cfg);

    exec::ThreadPool pool(cfg.shards + 1);
    std::thread workers([&] { svc.runWorkers(pool); });

    const ProcId npids = 16;
    std::atomic<uint64_t> refused{0};
    auto producer = [&](unsigned seed) {
        for (unsigned round = 0; round < 200; ++round) {
            ProcId pid = 1 + (seed + round) % npids;
            for (const auto &ev : leakyWorkload(pid))
                if (!svc.submit(ev))
                    ++refused;
        }
    };
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < 4; ++p)
        producers.emplace_back(producer, p * 7);

    std::thread chaos([&] {
        for (unsigned round = 0; round < 100; ++round) {
            ProcId pid = 1 + round % npids;
            switch (round % 4) {
              case 0:
                svc.attach(pid);
                break;
              case 1:
                svc.detach(pid);
                break;
              case 2:
                svc.checkSinkNow(pid, 0x100, 0x103, 1000 + round);
                break;
              default:
                svc.maintain();
                break;
            }
        }
    });

    for (auto &t : producers)
        t.join();
    chaos.join();
    svc.stop();
    workers.join();
    svc.pump(); // drain anything the workers left at shutdown

    auto st = svc.stats();
    EXPECT_EQ(st.submitted, st.accepted + st.overflowed);
    EXPECT_EQ(st.accepted, st.drained);
    EXPECT_EQ(st.overflowed, refused.load());
    // Overflow is backpressure, not loss: every refusal left a
    // stream-loss mark on its pid.
    if (st.overflowed > 0)
        EXPECT_GT(st.loss_marks, 0u);

    // After the dust settles every pid still answers, and no pid
    // that lost events answers a bare Clean on its tainted range.
    for (ProcId pid = 1; pid <= npids; ++pid) {
        Addr base = 0x10000u + pid * 0x10000u;
        auto v = svc.checkSinkNow(pid, base + 4096, base + 4099,
                                  2000 + pid);
        (void)v; // any verdict is legal here; the call must be safe
    }
}

TEST(ServiceStress, DurableGroupCommitUnderConcurrency)
{
    // The TSan target for group commit: per-shard workers commit
    // WALs at their drains while producers submit, a chaos thread
    // probes, detaches (closing WALs) and runs maintain() (evicting,
    // so closing more) on the same pids, and snapshots rotate every
    // few records. Afterwards every pid directory must recover with
    // no corruption and no torn WAL, live sessions and closed alike.
    const std::string dir = freshDir("pift_stress_durable");
    service::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.queue_capacity = 64;
    cfg.memory_ceiling = 16 * 64;
    cfg.session.durable_dir = dir;
    cfg.session.snapshot_every = 4;
    service::TrackingService svc(cfg);

    exec::ThreadPool pool(cfg.shards + 1);
    std::thread workers([&] { svc.runWorkers(pool); });

    const ProcId npids = 12;
    auto producer = [&](unsigned seed) {
        for (unsigned round = 0; round < 300; ++round) {
            ProcId pid = 1 + (seed + round) % npids;
            auto evs = leakyWorkload(pid);
            (void)svc.submitMany(evs.data(), evs.size());
        }
    };
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < 3; ++p)
        producers.emplace_back(producer, p * 5);
    std::thread chaos([&] {
        for (unsigned round = 0; round < 300; ++round) {
            ProcId pid = 1 + round % npids;
            Addr base = 0x10000u + pid * 0x10000u;
            switch (round % 3) {
              case 0:
                svc.checkSinkNow(pid, base + 4096, base + 4099,
                                 3000 + round);
                break;
              case 1:
                svc.detach(pid);
                break;
              default:
                svc.maintain();
                break;
            }
        }
    });
    for (auto &t : producers)
        t.join();
    chaos.join();
    svc.stop();
    workers.join();
    svc.pump();

    auto expectRecoverable = [&](const char *when) {
        size_t dirs = 0, snapshots = 0;
        for (ProcId pid = 1; pid <= npids; ++pid) {
            const std::string d = dir + "/pid_" + std::to_string(pid);
            if (!std::filesystem::exists(d))
                continue;
            ++dirs;
            auto r = persist::recover(d, cfg.session.storage);
            snapshots += r.snapshot_present;
            EXPECT_FALSE(r.corruption_detected)
                << when << " " << d << ": " << r.detail;
            EXPECT_TRUE(r.wal_header_ok)
                << when << " " << d << ": " << r.detail;
            EXPECT_FALSE(r.wal_torn)
                << when << " " << d << ": " << r.detail;
        }
        EXPECT_GT(dirs, 0u) << when;
        EXPECT_GT(snapshots, 0u) << when; // WALs rotated meanwhile
    };
    for (const auto &info : svc.sessions())
        EXPECT_TRUE(info.durable_healthy) << info.pid;
    expectRecoverable("live");
    for (ProcId pid = 1; pid <= npids; ++pid)
        svc.detach(pid);
    expectRecoverable("detached");
    std::filesystem::remove_all(dir);
}

TEST(ServiceStress, QueueRefillsAcrossDrains)
{
    // The TSan target for the flat shard queue: producers keep small
    // queues full while the workers empty them, so every queue fills
    // and drains many times over. Every accepted event must be
    // applied exactly once, whatever the interleaving.
    for (size_t cap : {size_t{1}, size_t{4}, size_t{16}}) {
        SCOPED_TRACE("queue_capacity " + std::to_string(cap));
        service::ServiceConfig cfg;
        cfg.shards = 2;
        cfg.queue_capacity = cap;
        service::TrackingService svc(cfg);
        exec::ThreadPool pool(cfg.shards + 1);
        std::thread workers([&] { svc.runWorkers(pool); });

        // Each producer pushes until 10x the bound of every shard got
        // through, in runs that span pids of both shards.
        const uint64_t target = 10 * cap * cfg.shards;
        auto producer = [&](ProcId first_pid) {
            uint64_t got = 0;
            SeqNum lseq = 0;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (got < target &&
                   std::chrono::steady_clock::now() < deadline) {
                std::vector<ServiceEvent> run;
                for (ProcId pid = first_pid; pid < first_pid + 3; ++pid) {
                    const Addr base = 0x10000u + pid * 0x10000u;
                    ++lseq;
                    run.push_back(
                        memEv(pid, EventKind::Load, base, base + 3, lseq));
                    run.push_back(memEv(pid, EventKind::Store, base + 64,
                                        base + 67, lseq));
                }
                const size_t n = svc.submitMany(run.data(), run.size());
                got += n;
                if (n < run.size())
                    std::this_thread::yield();
            }
            EXPECT_GE(got, target);
        };
        std::vector<std::thread> producers;
        for (ProcId p = 0; p < 3; ++p)
            producers.emplace_back(producer, 1 + 3 * p);
        for (auto &t : producers)
            t.join();
        svc.stop();
        workers.join();

        auto st = svc.stats();
        EXPECT_GE(st.accepted, 3 * target);
        EXPECT_EQ(st.submitted, st.accepted + st.overflowed);
        EXPECT_EQ(st.drained, st.accepted);
        uint64_t applied = 0;
        for (const auto &info : svc.sessions())
            applied += info.events;
        EXPECT_EQ(applied, st.accepted);
    }
}

TEST(ServiceStress, PumpModeDeterministicAcrossJobs)
{
    // The same multiplexed workload pumped at different widths must
    // produce identical verdict streams per pid.
    auto runAt = [](unsigned jobs) {
        service::ServiceConfig cfg;
        cfg.shards = 8;
        service::TrackingService svc(cfg);
        for (ProcId pid = 1; pid <= 24; ++pid)
            for (const auto &ev : leakyWorkload(pid))
                EXPECT_TRUE(svc.submit(ev));
        svc.pump(jobs);
        std::vector<core::SinkVerdict> out;
        for (ProcId pid = 1; pid <= 24; ++pid) {
            Addr base = 0x10000u + pid * 0x10000u;
            out.push_back(svc.checkSinkNow(pid, base + 4096,
                                           base + 4099, 70));
            out.push_back(svc.checkSinkNow(pid, base + 9000,
                                           base + 9003, 71));
        }
        return out;
    };
    auto serial = runAt(1);
    auto wide = runAt(4);
    EXPECT_EQ(serial, wide);
}
