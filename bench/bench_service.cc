/**
 * @file
 * Multi-tenant service bench (DESIGN.md §14): multiplex the whole
 * app registry through TrackingService and gate the properties the
 * daemon layer promises.
 *
 * Named checks (exit 1 on any violation):
 *  - verdict differential: every registry app multiplexed through
 *    the service yields exactly the serial per-app replay's
 *    (sink_id, tainted, verdict) sequence at zero faults;
 *  - determinism: the multiplexed verdict streams are identical at
 *    --jobs 1 and --jobs 4 (CI additionally cmp's whole reports);
 *  - scale: sustained events/sec and exact-p99 sink-check latency at
 *    1/16/256/4096 concurrent sessions, each row with every event
 *    accepted (none overflowed) and at least one sink probe;
 *  - pressure: at 4096 sessions a byte ceiling engages eviction and
 *    aggregate storage stays bounded, with FP=0 and no silent FN at
 *    sinks (evicted tenants answer MaybeTainted, never bare Clean);
 *  - backpressure: a flooded shard refuses events but every refusal
 *    degrades the pid to MaybeTainted with a StreamLoss provenance
 *    record behind it (never a silent drop).
 *
 * Run: ./build/bench/bench_service [--out FILE] [--no-timing]
 *                                  [--jobs N]
 * --no-timing zeroes wall-clock-derived fields so reports from
 * different widths can be compared byte for byte.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "exec/thread_pool.hh"
#include "provenance/explain.hh"
#include "provenance/recorder.hh"
#include "service/service.hh"

using namespace pift;
using service::EventKind;
using service::ServiceEvent;

namespace
{

/** One scaling row: S concurrent sessions driven to completion. */
struct ScaleRun
{
    unsigned sessions = 0;
    uint64_t events = 0;
    uint64_t accepted = 0;
    uint64_t overflowed = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
    double p99_sink_us = 0.0;
    unsigned sink_checks = 0;
    unsigned clean = 0;
    unsigned tainted = 0;
    unsigned maybe = 0;
};

/** Synthetic per-pid leak: source, tainted load, in-window store. */
std::vector<ServiceEvent>
leakyWorkload(ProcId pid)
{
    Addr base = 0x10000u + pid * 0x10000u;
    std::vector<ServiceEvent> evs(3);
    evs[0].pid = pid;
    evs[0].kind = EventKind::Source;
    evs[0].start = base;
    evs[0].end = base + 63;
    evs[0].id = 1;
    evs[1].pid = pid;
    evs[1].kind = EventKind::Load;
    evs[1].start = base;
    evs[1].end = base + 3;
    evs[1].local_seq = 1;
    evs[2].pid = pid;
    evs[2].kind = EventKind::Store;
    evs[2].start = base + 4096;
    evs[2].end = base + 4099;
    evs[2].local_seq = 2;
    return evs;
}

/**
 * Multiplex the first @p napps registry apps through one service
 * (chunked submits, pumped at @p jobs) and return the concatenated
 * per-app verdict streams in app order.
 */
std::vector<core::SinkResult>
multiplexRegistry(const std::vector<analysis::LabelledTrace> &set,
                  size_t napps, unsigned jobs)
{
    service::ServiceConfig cfg;
    cfg.shards = 16;
    cfg.queue_capacity = 1u << 16;
    service::TrackingService svc(cfg);
    const size_t chunk = cfg.queue_capacity / 2;
    for (size_t i = 0; i < napps; ++i) {
        ProcId pid = static_cast<ProcId>(1000 + i);
        auto evs = service::eventsFromTrace(set[i].trace, pid);
        for (size_t off = 0; off < evs.size(); off += chunk) {
            size_t n = std::min(chunk, evs.size() - off);
            svc.submitMany(evs.data() + off, n);
            svc.pump(jobs);
        }
    }
    std::vector<core::SinkResult> out;
    for (size_t i = 0; i < napps; ++i) {
        auto sinks =
            svc.sinkResultsFor(static_cast<ProcId>(1000 + i));
        out.insert(out.end(), sinks.begin(), sinks.end());
    }
    if (svc.stats().overflowed != 0) // zero-fault phase by design
        out.clear();
    return out;
}

bool
sameVerdicts(const std::vector<core::SinkResult> &a,
             const std::vector<core::SinkResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].sink_id != b[i].sink_id ||
            a[i].tainted != b[i].tainted ||
            a[i].verdict != b[i].verdict)
            return false;
    return true;
}

double
exactP99(std::vector<double> us)
{
    if (us.empty())
        return 0.0;
    std::sort(us.begin(), us.end());
    size_t idx = (us.size() * 99 + 99) / 100; // ceil(0.99 n)
    if (idx > us.size())
        idx = us.size();
    return us[idx - 1];
}

} // namespace

int
main(int argc, char **argv)
{
    argc = exec::stripJobsFlag(argc, argv);
    if (argc < 0) {
        std::fprintf(stderr, "bad --jobs value\n");
        return 2;
    }
    std::string out_path = "BENCH_service.json";
    bool no_timing = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--no-timing") == 0) {
            no_timing = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] [--no-timing] "
                         "[--jobs N]\n",
                         argv[0]);
            return 2;
        }
    }

    benchx::Phase phase("multi-tenant tracking service",
                        "Section 5 deployment model");
    const auto &set = benchx::registryTraces();
    const unsigned jobs = exec::defaultJobs();
    std::printf("registry: %zu apps; jobs: %u\n\n", set.size(), jobs);

    // ------------------------------------------------------------
    // Gate 1: verdict differential vs serial per-app replay.
    // ------------------------------------------------------------
    std::printf("[1/4] differential: service multiplex vs serial "
                "replay, %zu apps\n",
                set.size());
    size_t mismatches = 0;
    {
        service::ServiceConfig cfg;
        cfg.shards = 16;
        cfg.queue_capacity = 1u << 16;
        service::TrackingService svc(cfg);
        const size_t chunk = cfg.queue_capacity / 2;
        for (size_t i = 0; i < set.size(); ++i) {
            ProcId pid = static_cast<ProcId>(1000 + i);
            auto evs = service::eventsFromTrace(set[i].trace, pid);
            for (size_t off = 0; off < evs.size(); off += chunk) {
                size_t n = std::min(chunk, evs.size() - off);
                svc.submitMany(evs.data() + off, n);
                svc.pump();
            }
            core::TaintStorage store(cfg.session.storage);
            core::PiftTracker ref(cfg.session.params, store);
            sim::replay(set[i].trace, ref);
            if (!sameVerdicts(svc.sinkResultsFor(pid),
                              ref.sinkResults())) {
                ++mismatches;
                std::printf("  MISMATCH: %s\n", set[i].name.c_str());
            }
        }
        if (svc.stats().overflowed != 0) {
            std::printf("  unexpected overflow in zero-fault phase\n");
            ++mismatches;
        }
    }
    const bool differential_ok = mismatches == 0;
    std::printf("  %zu/%zu apps identical\n\n", set.size() - mismatches,
                set.size());

    // ------------------------------------------------------------
    // Gate 2: determinism — multiplexed verdicts at jobs 1 vs 4.
    // ------------------------------------------------------------
    const size_t det_apps = std::min<size_t>(set.size(), 16);
    std::printf("[2/4] determinism: %zu-app multiplex at jobs 1 vs 4\n",
                det_apps);
    auto v1 = multiplexRegistry(set, det_apps, 1);
    auto v4 = multiplexRegistry(set, det_apps, 4);
    const bool deterministic = !v1.empty() && sameVerdicts(v1, v4);
    std::printf("  %s\n\n", deterministic ? "identical" : "MISMATCH");

    // ------------------------------------------------------------
    // Scaling: events/sec + exact p99 sink latency per tenant count.
    // ------------------------------------------------------------
    std::printf("[3/4] scaling: 1/16/256/4096 concurrent sessions\n");
    std::printf("%9s %12s %12s %14s %12s %28s\n", "sessions",
                "events", "wall_ms", "events/sec", "p99_sink_us",
                "verdicts (C/T/M)");
    // Per-app event streams, derived once; session s plays app
    // s % napps re-pidded to s+1 and truncated to its budget.
    std::vector<std::vector<ServiceEvent>> app_events;
    app_events.reserve(set.size());
    for (const auto &item : set)
        app_events.push_back(service::eventsFromTrace(item.trace, 1));
    const uint64_t kBudget = 1ull << 21; // events per scaling run
    std::vector<ScaleRun> runs;
    bool scaling_ok = true;
    for (unsigned sessions : {1u, 16u, 256u, 4096u}) {
        // Build the interleaved submission stream: rounds of 256
        // events per session, round-robin — thousands of tenants
        // genuinely in flight at once.
        size_t cycle = 0; // one full pass over the registry
        for (const auto &evs : app_events)
            cycle += evs.size();
        const size_t per_session = std::min<uint64_t>(
            cycle, std::max<uint64_t>(16, kBudget / sessions));
        std::vector<std::vector<ServiceEvent>> streams(sessions);
        for (unsigned s = 0; s < sessions; ++s) {
            auto &dst = streams[s];
            dst.reserve(per_session);
            uint64_t next_local = 0;
            size_t app = s % app_events.size();
            while (dst.size() < per_session) {
                for (const auto &e : app_events[app]) {
                    if (dst.size() >= per_session)
                        break;
                    ServiceEvent ev = e;
                    ev.pid = s + 1;
                    if (ev.kind == EventKind::Load ||
                        ev.kind == EventKind::Store)
                        ev.local_seq = ++next_local;
                    dst.push_back(ev);
                }
                app = (app + 1) % app_events.size();
            }
        }
        std::vector<ServiceEvent> feed;
        uint64_t total = 0;
        for (const auto &st : streams)
            total += st.size();
        feed.reserve(total);
        const size_t round_chunk = 256;
        for (size_t off = 0; true; off += round_chunk) {
            bool any = false;
            for (const auto &st : streams) {
                if (off >= st.size())
                    continue;
                any = true;
                size_t n = std::min(round_chunk, st.size() - off);
                feed.insert(feed.end(), st.begin() + off,
                            st.begin() + off + n);
            }
            if (!any)
                break;
        }

        service::ServiceConfig cfg;
        cfg.shards = 16;
        cfg.queue_capacity = 1u << 16;
        service::TrackingService svc(cfg);
        const size_t seg = 1u << 15; // well under one shard's bound
        ScaleRun run;
        run.sessions = sessions;
        run.events = feed.size();
        benchx::Timed t = benchx::timedRun(feed.size(), [&] {
            for (size_t off = 0; off < feed.size(); off += seg) {
                size_t n = std::min(seg, feed.size() - off);
                svc.submitMany(feed.data() + off, n);
                svc.pump();
            }
        });
        run.wall_ms = t.wall_ms;
        run.events_per_sec = t.events_per_sec;
        auto st = svc.stats();
        run.accepted = st.accepted;
        run.overflowed = st.overflowed;

        // Exact-sorted p99 over per-pid synchronous sink checks.
        const unsigned probes = std::min(sessions, 1024u);
        std::vector<double> lat_us;
        lat_us.reserve(probes);
        for (unsigned p = 0; p < probes; ++p) {
            auto t0 = std::chrono::steady_clock::now();
            auto v = svc.checkSinkNow(p + 1, 0, 3, 9000 + p);
            lat_us.push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            ++run.sink_checks;
            if (v == core::SinkVerdict::Clean)
                ++run.clean;
            else if (v == core::SinkVerdict::Tainted)
                ++run.tainted;
            else
                ++run.maybe;
        }
        run.p99_sink_us = exactP99(lat_us);
        if (run.overflowed != 0)
            scaling_ok = false; // paced feed must not overflow
        std::printf("%9u %12llu %12.1f %14.0f %12.1f %10u/%u/%u\n",
                    run.sessions,
                    static_cast<unsigned long long>(run.events),
                    run.wall_ms, run.events_per_sec, run.p99_sink_us,
                    run.clean, run.tainted, run.maybe);
        runs.push_back(run);
    }
    std::printf("\n");

    // ------------------------------------------------------------
    // Gate 3: pressure — ceiling-driven eviction at 4096 sessions,
    // FP=0 / no-silent-FN at sinks afterwards.
    // ------------------------------------------------------------
    std::printf("[4/4] pressure: 4096 sessions vs byte ceiling\n");
    const unsigned kPressurePids = 4096;
    const uint64_t kCeiling = 64ull * 512; // ~512 tenants' taint
    uint64_t evicted = 0, final_bytes = 0, fp = 0, silent_fn = 0;
    {
        service::ServiceConfig cfg;
        cfg.shards = 16;
        cfg.queue_capacity = 1u << 14;
        cfg.memory_ceiling = kCeiling;
        service::TrackingService svc(cfg);
        for (ProcId pid = 1; pid <= kPressurePids; ++pid) {
            bool leaky = pid % 2 == 1;
            if (leaky) {
                auto evs = leakyWorkload(pid);
                svc.submitMany(evs.data(), evs.size());
            } else {
                Addr base = 0x10000u + pid * 0x10000u;
                ServiceEvent ev;
                ev.pid = pid;
                ev.kind = EventKind::Load;
                ev.start = base;
                ev.end = base + 3;
                ev.local_seq = 1;
                svc.submit(ev);
            }
            if (pid % 256 == 0) {
                svc.pump();
                svc.maintain();
            }
        }
        svc.pump();
        svc.maintain();
        auto st = svc.stats();
        evicted = st.evicted;
        final_bytes = st.storage_bytes;
        for (ProcId pid = 1; pid <= kPressurePids; ++pid) {
            Addr base = 0x10000u + pid * 0x10000u;
            auto v = svc.checkSinkNow(pid, base + 4096, base + 4099,
                                      20000 + pid);
            bool leaky = pid % 2 == 1;
            if (leaky && v == core::SinkVerdict::Clean)
                ++silent_fn;
            if (!leaky && v == core::SinkVerdict::Tainted)
                ++fp;
        }
    }
    const bool pressure_ok =
        evicted > 0 && final_bytes <= kCeiling && fp == 0 &&
        silent_fn == 0;
    std::printf("  evicted=%llu final_bytes=%llu (ceiling %llu) "
                "fp=%llu silent_fn=%llu -> %s\n\n",
                static_cast<unsigned long long>(evicted),
                static_cast<unsigned long long>(final_bytes),
                static_cast<unsigned long long>(kCeiling),
                static_cast<unsigned long long>(fp),
                static_cast<unsigned long long>(silent_fn),
                pressure_ok ? "ok" : "VIOLATED");

    // ------------------------------------------------------------
    // Gate 4: backpressure — overflow is loud, never silent.
    // ------------------------------------------------------------
    uint64_t bp_overflowed = 0;
    bool bp_surfaced = false, bp_cited = false;
    {
        service::ServiceConfig cfg;
        cfg.shards = 1;
        cfg.queue_capacity = 4;
        cfg.session.provenance = true;
        service::TrackingService svc(cfg);
        ServiceEvent src;
        src.pid = 5;
        src.kind = EventKind::Source;
        src.start = 0x1000;
        src.end = 0x103f;
        src.id = 1;
        svc.submit(src);
        for (SeqNum i = 0; i < 64; ++i) {
            ServiceEvent ev;
            ev.pid = 5;
            ev.kind = EventKind::Load;
            ev.start = 0x1000;
            ev.end = 0x1003;
            ev.local_seq = i + 1;
            svc.submit(ev);
        }
        svc.pump();
        bp_overflowed = svc.stats().overflowed;
        auto v = svc.checkSinkNow(5, 0x9000, 0x9003, 77);
        bp_surfaced = v == core::SinkVerdict::MaybeTainted;
        if (provenance::compiledIn()) {
            const provenance::Recorder *rec = svc.recorderFor(5);
            if (rec)
                for (const auto &r : rec->recordsFor(5))
                    if (r.kind == provenance::ProvKind::StreamLoss)
                        bp_cited = true;
        } else {
            bp_cited = true; // vacuously: nothing compiled to cite
        }
    }
    const bool backpressure_ok =
        bp_overflowed > 0 && bp_surfaced && bp_cited;
    std::printf("backpressure: overflowed=%llu surfaced=%s "
                "provenance=%s -> %s\n\n",
                static_cast<unsigned long long>(bp_overflowed),
                bp_surfaced ? "MaybeTainted" : "SILENT",
                bp_cited ? "cited" : "missing",
                backpressure_ok ? "ok" : "VIOLATED");

    const bool all_ok = differential_ok && deterministic &&
                        scaling_ok && pressure_ok && backpressure_ok;

    if (no_timing)
        for (auto &r : runs) {
            r.wall_ms = 0.0;
            r.events_per_sec = 0.0;
            r.p99_sink_us = 0.0;
        }

    benchx::Report rep("bench_service");
    rep.field("shards", 16, "queue_capacity", 1u << 16,
              "no_timing", no_timing,
              "provenance_compiled", provenance::compiledIn());
    rep.object("differential", [&] {
        rep.field("apps", set.size(), "mismatches", mismatches,
                  "identical", differential_ok);
    });
    rep.field("deterministic", deterministic);
    rep.array("scaling", runs.size(), [&](size_t i) {
        const ScaleRun &r = runs[i];
        rep.field("sessions", r.sessions, "events", r.events,
                  "accepted", r.accepted, "overflowed", r.overflowed,
                  "wall_ms", r.wall_ms,
                  "events_per_sec", r.events_per_sec,
                  "p99_sink_us", r.p99_sink_us,
                  "sink_checks", r.sink_checks, "clean", r.clean,
                  "tainted", r.tainted, "maybe", r.maybe);
    });
    rep.object("pressure", [&] {
        rep.field("sessions", kPressurePids, "ceiling_bytes", kCeiling,
                  "evicted", evicted, "final_bytes", final_bytes,
                  "fp", fp, "silent_fn", silent_fn, "ok", pressure_ok);
    });
    rep.object("backpressure", [&] {
        rep.field("overflowed", bp_overflowed,
                  "surfaced_maybe", bp_surfaced,
                  "provenance_cited", bp_cited, "ok", backpressure_ok);
    });
    rep.field("gates_passed", all_ok);

    rep.check("differential: every app's multiplexed verdicts equal "
              "its serial replay",
              differential_ok);
    rep.check("deterministic: verdict streams equal at pump widths 1 "
              "and 4",
              deterministic);
    std::vector<unsigned> sessions;
    for (const ScaleRun &r : runs) {
        const std::string row =
            "scaling[" + std::to_string(r.sessions) + " sessions]: ";
        sessions.push_back(r.sessions);
        rep.check(row + "overflowed == 0", r.overflowed == 0);
        rep.check(row + "accepted == events", r.accepted == r.events);
        rep.check(row + "sink_checks >= 1", r.sink_checks >= 1);
    }
    rep.check("scaling rows are 1, 16, 256, 4096 sessions",
              sessions == std::vector<unsigned>{1, 16, 256, 4096});
    rep.check("pressure: evicted >= 1", evicted >= 1);
    rep.check("pressure: final_bytes <= ceiling_bytes",
              final_bytes <= kCeiling);
    rep.check("pressure: fp == 0", fp == 0);
    rep.check("pressure: silent_fn == 0", silent_fn == 0);
    rep.check("backpressure: overflowed >= 1", bp_overflowed >= 1);
    rep.check("backpressure: refusals surfaced as MaybeTainted",
              bp_surfaced);
    rep.check("backpressure: a StreamLoss record is cited", bp_cited);
    return rep.finish(out_path);
}
