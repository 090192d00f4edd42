/**
 * @file
 * The two service workloads, both closed-loop in pump mode: one
 * producer sends a segment with submitMany, pump() drains it, and only
 * then is the next segment sent; maintain() runs every few segments
 * and synchronous checkSinkNow probes follow segments on a drained
 * shard.
 *
 *  - `fleet`: 4,096 tenants on the default ServiceConfig, taps off,
 *    each replaying registry apps re-pidded with its own local_seq,
 *    interleaved in round-robin bursts (bench_service's scaling shape).
 *  - `solo`: one long-lived tenant replaying the whole registry back
 *    to back with the provenance recorder and a durable journal on.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include "layers.hh"
#include "provenance/recorder.hh"
#include "service/service.hh"
#include "support/rng.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace pift;
using service::EventKind;
using service::ServiceEvent;

namespace
{

/** Probe sink ids start here, clear of every app's own sink ids. */
constexpr uint32_t probe_id_base = 0x70000000u;

/** Store targets remembered per tenant for drawing probe ranges. */
constexpr size_t recent_stores = 32;

struct Probe
{
    ProcId pid = 0;
    Addr start = 0;
    Addr end = 0;
    uint32_t id = 0;
};

/** The closed-loop schedule every pass of a run replays. */
struct Schedule
{
    unsigned tenants = 0; //!< pids 1..tenants
    std::vector<ServiceEvent> feed;
    size_t segment = 0; //!< events per submitMany + pump
    std::vector<Probe> probes;
    /** Probes [probes_after[k], probes_after[k+1]) follow segment k. */
    std::vector<size_t> probes_after;
    size_t maintain_every = 0; //!< segments between maintain() calls
    uint64_t mem_events = 0;
};

/** What distinguishes the two service workloads' inputs. */
struct Shape
{
    unsigned tenants = 1;
    size_t per_tenant = 0; //!< events per tenant; 0 = one registry cycle
    size_t burst_lo = 0, burst_hi = 0;
    size_t segment = 4096;
    size_t probes_per_segment = 8;
    /**
     * Segments between maintain() calls (262,144 events at full size).
     * maintain() sums every session's storage bytes, a full CAM walk
     * each, so at 4,096 tenants one call costs tens of milliseconds; a
     * control loop runs it on a slow timer, not per burst.
     */
    size_t maintain_every = 64;
};

struct ServiceInputs
{
    Registry registry;
    Schedule schedule;
};

ServiceEvent
probeEvent(const Probe &p)
{
    ServiceEvent ev;
    ev.pid = p.pid;
    ev.kind = EventKind::Sink;
    ev.start = p.start;
    ev.end = p.end;
    ev.id = p.id;
    return ev;
}

/**
 * Convert the registry to per-app event streams and lay out the
 * seeded feed: tenant t plays apps from a seeded registry order,
 * starting at position t, re-pidded to t + 1 with its own local_seq;
 * tenants interleave in round-robin bursts of seeded length. Probes
 * draw a tenant from the segment just sent and a range from that
 * tenant's recent store targets.
 */
Schedule
buildSchedule(const Registry &reg, const Shape &shape, uint64_t seed)
{
    std::vector<std::vector<ServiceEvent>> app_events;
    size_t cycle = 0;
    for (const auto &app : reg.apps) {
        app_events.push_back(service::eventsFromTrace(app.trace, 1));
        cycle += app_events.back().size();
    }
    const size_t napps = app_events.size();
    const size_t per_tenant = shape.per_tenant ? shape.per_tenant : cycle;
    const std::vector<size_t> order = seededOrder(napps, seed);
    Rng rng(seed * 0xd1342543de82ef95ull + 7);

    Schedule s;
    s.tenants = shape.tenants;
    s.segment = shape.segment;
    s.maintain_every = shape.maintain_every;
    s.feed.reserve(per_tenant * shape.tenants);

    struct Cursor
    {
        size_t app_k = 0, pos = 0, emitted = 0;
        SeqNum next_local = 0;
    };
    std::vector<Cursor> cur(shape.tenants);
    auto emit = [&](unsigned t) {
        Cursor &c = cur[t];
        if (c.emitted >= per_tenant)
            return false;
        const std::vector<ServiceEvent> *evs;
        while ((evs = &app_events[order[(t + c.app_k) % napps]]),
               c.pos >= evs->size()) {
            ++c.app_k;
            c.pos = 0;
        }
        ServiceEvent ev = (*evs)[c.pos++];
        ev.pid = t + 1;
        if (ev.kind == EventKind::Load || ev.kind == EventKind::Store) {
            ev.local_seq = ++c.next_local;
            ++s.mem_events;
        }
        s.feed.push_back(ev);
        ++c.emitted;
        return true;
    };
    for (bool any = true; any;) {
        any = false;
        for (unsigned t = 0; t < shape.tenants; ++t) {
            size_t burst = static_cast<size_t>(rng.range(
                static_cast<int64_t>(shape.burst_lo),
                static_cast<int64_t>(shape.burst_hi)));
            for (size_t b = 0; b < burst && emit(t); ++b)
                any = true;
        }
    }

    struct Recent
    {
        std::vector<std::pair<Addr, Addr>> ranges;
        size_t next = 0;
    };
    std::vector<Recent> recent(shape.tenants);
    s.probes_after.push_back(0);
    for (size_t off = 0; off < s.feed.size(); off += s.segment) {
        const size_t end = std::min(off + s.segment, s.feed.size());
        for (size_t i = off; i < end; ++i) {
            const ServiceEvent &ev = s.feed[i];
            if (ev.kind != EventKind::Store)
                continue;
            Recent &r = recent[ev.pid - 1];
            if (r.ranges.size() < recent_stores)
                r.ranges.emplace_back(ev.start, ev.end);
            else
                r.ranges[r.next++ % recent_stores] = {ev.start, ev.end};
        }
        for (size_t p = 0; p < shape.probes_per_segment; ++p)
            for (int attempt = 0; attempt < 8; ++attempt) {
                const ServiceEvent &ev = s.feed[off + rng.below(end - off)];
                const Recent &r = recent[ev.pid - 1];
                if (r.ranges.empty())
                    continue;
                const auto &range = r.ranges[rng.below(r.ranges.size())];
                s.probes.push_back(
                    {ev.pid, range.first, range.second,
                     probe_id_base + static_cast<uint32_t>(s.probes.size())});
                break;
            }
        s.probes_after.push_back(s.probes.size());
    }
    return s;
}

/** Replay the schedule's per-tenant order: events, then probes. */
template <typename ApplyFn, typename ProbeFn>
void
walkSchedule(const Schedule &s, ApplyFn &&apply, ProbeFn &&probe)
{
    for (size_t k = 0, off = 0; off < s.feed.size(); ++k, off += s.segment) {
        const size_t end = std::min(off + s.segment, s.feed.size());
        for (size_t i = off; i < end; ++i)
            apply(s.feed[i]);
        for (size_t p = s.probes_after[k]; p < s.probes_after[k + 1]; ++p)
            probe(s.probes[p]);
    }
}

using SinkStreams = std::vector<std::vector<core::SinkResult>>;

/** Positions where two sink-result streams disagree. */
uint64_t
sinkMismatches(const std::vector<core::SinkResult> &got,
               const std::vector<core::SinkResult> &want)
{
    uint64_t bad = got.size() > want.size() ? got.size() - want.size()
                                            : want.size() - got.size();
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i)
        bad += got[i].sink_id != want[i].sink_id ||
            got[i].tainted != want[i].tainted ||
            got[i].verdict != want[i].verdict ||
            got[i].range.start != want[i].range.start ||
            got[i].range.end != want[i].range.end;
    return bad;
}

/**
 * The correctness reference: per tenant, a PiftTracker over the exact
 * IdealRangeStore fed the same stream and probes. LruSpill storage is
 * exact, so the service must answer identically.
 */
SinkStreams
referenceSinks(const Schedule &s, const core::PiftParams &params,
               bool plant_defect)
{
    struct Ref
    {
        core::IdealRangeStore ideal;
        DropFirstInsert defect{ideal};
        core::PiftTracker tracker;
        EventFeeder feeder;

        Ref(ProcId pid, const core::PiftParams &p, bool plant)
            : tracker(p, plant ? static_cast<core::TaintStore &>(defect)
                               : ideal),
              feeder(pid, tracker)
        {}
    };
    std::vector<std::unique_ptr<Ref>> refs;
    for (unsigned t = 0; t < s.tenants; ++t)
        refs.push_back(std::make_unique<Ref>(t + 1, params, plant_defect));
    walkSchedule(
        s, [&](const ServiceEvent &ev) { refs[ev.pid - 1]->feeder.apply(ev); },
        [&](const Probe &p) { refs[p.pid - 1]->feeder.apply(probeEvent(p)); });
    SinkStreams out;
    for (const auto &r : refs)
        out.push_back(r->tracker.sinkResults());
    return out;
}

/** Measurements of one service pass. */
struct Pass
{
    double busy_s = 0.0; //!< submitMany + pump + maintain wall time
    uint64_t accepted = 0;
    std::vector<double> probe_us;
    uint64_t verdicts[3] = {0, 0, 0}; //!< Clean, Tainted, MaybeTainted
    unsigned pumps = 0;
    double pump_cpu_s = 0.0, pump_wall_s = 0.0;
    double heap_delta_kb = 0.0; //!< heap in use after the last pump
    service::ServiceStats stats;
    std::map<std::string, uint64_t> counts;
};

Pass
servicePass(const Schedule &s, const service::ServiceConfig &cfg,
            const SinkStreams &ref, const Options &opt, SpanLog &spans,
            Report &rep)
{
    Pass out;
    resetTelemetry();
    const double heap0 = heapInUseKb();
    auto svc = std::make_unique<service::TrackingService>(cfg);
    for (size_t k = 0, off = 0; off < s.feed.size(); ++k, off += s.segment) {
        const size_t n = std::min(s.segment, s.feed.size() - off);
        const uint64_t t0 = nowNs();
        {
            Scoped span(spans, "submitMany");
            out.accepted += svc->submitMany(&s.feed[off], n);
        }
        const double cpu0 = spans.enabled ? cpuSeconds() : 0.0;
        const uint64_t p0 = nowNs();
        {
            Scoped span(spans, "pump");
            svc->pump(opt.jobs);
        }
        if (spans.enabled) {
            out.pump_wall_s += static_cast<double>(nowNs() - p0) * 1e-9;
            out.pump_cpu_s += cpuSeconds() - cpu0;
        }
        ++out.pumps;
        if ((k + 1) % s.maintain_every == 0) {
            Scoped span(spans, "maintain");
            svc->maintain();
        }
        out.busy_s += static_cast<double>(nowNs() - t0) * 1e-9;
        for (size_t p = s.probes_after[k]; p < s.probes_after[k + 1]; ++p) {
            const Probe &pr = s.probes[p];
            const uint64_t q0 = nowNs();
            core::SinkVerdict v;
            {
                Scoped span(spans, "checkSinkNow", pr.pid);
                v = svc->checkSinkNow(pr.pid, pr.start, pr.end, pr.id);
            }
            out.probe_us.push_back(static_cast<double>(nowNs() - q0) * 1e-3);
            ++out.verdicts[static_cast<size_t>(v) % 3];
        }
    }
    out.heap_delta_kb = heapInUseKb() - heap0;

    // The gate, outside the timed region: every tenant's in-stream
    // sink results and probe verdicts against the reference.
    uint64_t bad = 0;
    for (unsigned t = 0; t < s.tenants; ++t)
        bad += sinkMismatches(svc->sinkResultsFor(t + 1), ref[t]);
    // Tear the sessions down before reading ServiceStats and telemetry:
    // a tracker publishes its core.tracker.* tallies only when it is
    // destroyed, so live sessions would read zero.
    for (unsigned t = 0; t < s.tenants; ++t)
        svc->detach(t + 1);
    out.stats = svc->stats();
    out.counts = telemetryCounters();
    svc.reset();

    rep.attempt(s.feed.size() + s.probes.size());
    rep.failOps(out.stats.overflowed, "events refused by the service");
    rep.failOps(bad, "sink verdicts differ from the IdealRangeStore reference");
    return out;
}

/** Time split of one composed replay (tracker outside the service). */
struct Composed
{
    LayerClock sink, query, insert, remove, occupancy, append, snapshot;
    double probe_ns = 0.0;
    uint64_t probe_calls = 0;
    uint64_t events = 0; //!< events fed, probes included
    uint64_t wal_bytes = 0;
    uint64_t journal_records = 0, snapshots_taken = 0;
    uint64_t mem_events = 0; //!< loads + stores the trackers saw
    uint64_t prov_records = 0, prov_evicted = 0;
    size_t peak_entries = 0;
};

/**
 * Replay the schedule with no service in between: per tenant, the
 * TimedSink -> PiftTracker -> TimedStore -> TaintStorage stack a
 * Session builds, optionally with a provenance recorder and a durable
 * journal behind a TimedJournal. Verdicts are checked like the
 * service's.
 */
Composed
composedReplay(const Schedule &s, const service::SessionConfig &cfg,
               bool recorder, const std::string &durable_dir,
               const SinkStreams &ref, SpanLog &spans, Report &rep)
{
    struct Tenant
    {
        core::TaintStorage storage;
        TimedStore timed{storage};
        core::PiftTracker tracker;
        TimedSink sink{tracker};
        EventFeeder feeder;
        std::unique_ptr<provenance::Recorder> rec;
        std::unique_ptr<persist::DurableSession> durable;
        std::unique_ptr<TimedJournal> journal;

        Tenant(ProcId pid, const service::SessionConfig &c)
            : storage(c.storage), tracker(c.params, timed), feeder(pid, sink)
        {}
    };
    std::vector<std::unique_ptr<Tenant>> tenants(s.tenants);
    auto tenant = [&](ProcId pid) -> Tenant & {
        auto &slot = tenants[pid - 1];
        if (!slot) {
            slot = std::make_unique<Tenant>(pid, cfg);
            if (recorder) {
                provenance::RecorderParams rp;
                rp.ring_capacity = cfg.ring_capacity;
                slot->rec = std::make_unique<provenance::Recorder>(rp);
                slot->tracker.setRecorder(slot->rec.get());
                slot->storage.setRecorder(slot->rec.get());
            }
            if (!durable_dir.empty()) {
                (void)persist::ensureDir(durable_dir);
                persist::DurableOptions o;
                o.dir = durable_dir + "/pid_" + std::to_string(pid);
                o.flush_each = false;
                slot->durable = std::make_unique<persist::DurableSession>(
                    slot->storage, slot->tracker, o);
                if (!slot->durable->start().ok())
                    rep.broken("composed replay: durable start failed in " +
                               o.dir);
                slot->journal = std::make_unique<TimedJournal>(
                    *slot->durable, cfg.snapshot_every, spans, pid);
                slot->tracker.setJournal(slot->journal.get());
            }
        }
        return *slot;
    };

    Composed out;
    {
        Scoped span(spans, "composedReplay");
        walkSchedule(
            s,
            [&](const ServiceEvent &ev) {
                tenant(ev.pid).feeder.apply(ev);
                ++out.events;
            },
            [&](const Probe &p) {
                Tenant &t = tenant(p.pid);
                const double before = t.sink.clock.ns;
                t.feeder.apply(probeEvent(p));
                out.probe_ns += t.sink.clock.ns - before;
                ++out.probe_calls;
                ++out.events;
            });
    }
    uint64_t bad = 0;
    for (unsigned i = 0; i < s.tenants; ++i) {
        Tenant *t = tenants[i].get();
        if (!t) {
            bad += ref[i].size();
            continue;
        }
        bad += sinkMismatches(t->tracker.sinkResults(), ref[i]);
        out.sink = out.sink + t->sink.clock;
        out.query = out.query + t->timed.q;
        out.insert = out.insert + t->timed.ins;
        out.remove = out.remove + t->timed.rem;
        out.occupancy = out.occupancy + t->timed.other;
        out.peak_entries =
            std::max(out.peak_entries, t->storage.stats().max_entries_used);
        out.mem_events += t->tracker.stats().loads + t->tracker.stats().stores;
        if (t->rec) {
            out.prov_records += t->rec->totalRecorded();
            out.prov_evicted += t->rec->totalEvicted();
        }
        if (t->journal) {
            t->tracker.setJournal(nullptr);
            (void)t->durable->flush();
            out.append = out.append + t->journal->appends;
            out.snapshot = out.snapshot + t->journal->snapshots;
            out.wal_bytes += t->journal->walBytes();
            out.journal_records += t->durable->recordsLogged();
            out.snapshots_taken += t->durable->snapshotsTaken();
        }
    }
    rep.failOps(bad, "composed replay verdicts differ from the reference");
    return out;
}

/** Everything a fleet or solo run needs to know about its workload. */
struct ServiceWorkload
{
    const char *name;
    Shape shape;
    service::ServiceConfig config;
    bool recorder = false;       //!< provenance on in the sessions
    uint64_t snapshot_every = 0; //!< journal on when non-zero
};

void
runService(const ServiceWorkload &w, const Options &opt, Report &rep,
           SpanLog &spans)
{
    ServiceInputs in = repeatSetup(rep, [&] {
        ServiceInputs si;
        si.registry = captureRegistry(opt.tiny);
        si.schedule = buildSchedule(si.registry, w.shape, opt.seed);
        return si;
    });
    const Schedule &s = in.schedule;
    const SinkStreams ref =
        referenceSinks(s, w.config.session.params, opt.plant_defect);

    int pass_no = 0;
    auto configFor = [&]() {
        service::ServiceConfig cfg = w.config;
        cfg.session.provenance = w.recorder;
        if (w.snapshot_every) {
            cfg.session.durable_dir =
                opt.scratch + "/" + w.name + "-pass-" + std::to_string(pass_no);
            cfg.session.snapshot_every = w.snapshot_every;
        }
        return cfg;
    };

    CountCheck counts;
    std::vector<std::vector<double>> probe_us; // probe windows, all passes
    auto passes = [&](bool traced, std::vector<Pass> &out) {
        spans.enabled = traced;
        double elapsed = 0.0, last = 0.0;
        int done = 0;
        while (anotherPass(elapsed, last, opt.seconds, done, 1)) {
            service::ServiceConfig cfg = configFor();
            out.push_back(servicePass(s, cfg, ref, opt, spans, rep));
            if (!cfg.session.durable_dir.empty())
                std::filesystem::remove_all(cfg.session.durable_dir);
            ++pass_no;
            last = out.back().busy_s;
            elapsed += last;
            ++done;
            counts.check(out.back().counts, rep);
            appendWindows(probe_us, out.back().probe_us);
        }
        spans.enabled = false;
    };
    auto rates = [&](const std::vector<Pass> &ps) {
        std::vector<double> r;
        for (const Pass &p : ps)
            r.push_back(static_cast<double>(p.accepted) / p.busy_s);
        return r;
    };

    std::vector<Pass> untraced;
    passes(false, untraced);
    const Pass &first = untraced.front();
    rep.set("events_per_s", median(rates(untraced)));
    std::printf("%s: %u tenants, %zu events, %zu segments, %zu probes per "
                "pass, %zu passes\n",
                w.name, s.tenants, s.feed.size(), s.probes_after.size() - 1,
                s.probes.size(), untraced.size());
    std::printf("probe verdicts clean/tainted/maybe: %llu/%llu/%llu\n",
                static_cast<unsigned long long>(first.verdicts[0]),
                static_cast<unsigned long long>(first.verdicts[1]),
                static_cast<unsigned long long>(first.verdicts[2]));
    if (!opt.trace) {
        rep.set("sink_p50_us", groupedQuantile(probe_us, 0.50));
        rep.set("sink_p99_us", groupedQuantile(probe_us, 0.99));
        std::printf("sink_samples %zu per pass, %zu passes, %zu windows\n",
                    first.probe_us.size(), untraced.size(), probe_us.size());
        return;
    }

    std::vector<Pass> traced;
    passes(true, traced);
    rep.set("trace.overhead_ratio",
            median(rates(untraced)) / median(rates(traced)));

    // Counts, from the torn-down service of the first pass (every pass
    // repeats them exactly; CountCheck verified that).
    rep.set("service.accepted", first.stats.accepted);
    rep.set("service.refused", first.stats.overflowed);
    rep.set("service.sessions", first.stats.attached);
    rep.set("exec.tasks", static_cast<double>(first.pumps) * w.config.shards);
    rep.set("core.tracker.windows_opened", counts["core.tracker.windows_opened"]);
    rep.set("core.tracker.windows_renewed",
            counts["core.tracker.windows_renewed"]);
    rep.set("core.tracker.stores_tainted", counts["core.tracker.stores_tainted"]);
    rep.set("core.tracker.stores_untainted",
            counts["core.tracker.stores_untainted"]);
    rep.set("core.tracker.sink_checks",
            counts["core.tracker.sinks_clean"] +
                counts["core.tracker.sinks_tainted"] +
                counts["core.tracker.sinks_maybe"]);
    const double lookups = counts["core.storage.lookups"];
    rep.set("core.storage.lookups", lookups);
    rep.set("core.storage.inserts", counts["core.storage.inserts"]);
    rep.set("core.storage.removes", counts["core.storage.removes"]);
    rep.set("core.storage.evictions", counts["core.storage.evictions"]);
    rep.set("core.storage.spill_hits", counts["core.storage.spill_hits"]);
    rep.set("core.storage.probe_memo_hit_ratio",
            lookups ? counts["core.storage.hot_probe_hits"] / lookups : 0.0);
    rep.set("persist.journal_records", counts["persist.wal_records_total"]);
    rep.set("persist.snapshots", counts["persist.snapshots_total"]);
    double drained_max = 0.0, drained_sum = 0.0;
    for (unsigned i = 0; i < w.config.shards; ++i) {
        double d = counts["service.shard." + std::to_string(i) + ".drained"];
        drained_max = std::max(drained_max, d);
        drained_sum += d;
    }
    rep.set("service.shard_skew",
            drained_sum ? drained_max * w.config.shards / drained_sum : 0.0);

    // Times, from the traced passes' spans.
    double traced_events = 0.0, pump_cpu = 0.0, pump_wall = 0.0;
    for (const Pass &p : traced) {
        traced_events += static_cast<double>(p.accepted);
        pump_cpu += p.pump_cpu_s;
        pump_wall += p.pump_wall_s;
    }
    const double submit_ns = spans.totalNs("submitMany") / traced_events;
    const double pump_ns = spans.totalNs("pump") / traced_events;
    rep.set("service.submit_ns_per_event", submit_ns);
    rep.set("service.pump_ns_per_event", pump_ns);
    rep.set("service.maintain_us", median(spans.durations("maintain")) * 1e-3);
    rep.set("service.rss_per_session_kb",
            first.heap_delta_kb / std::max<uint64_t>(1, first.stats.attached));
    rep.set("exec.busy_share", pump_cpu / (pump_wall * opt.jobs));

    // Composed replays for the tracker / storage / persist /
    // provenance split; the one matching the service's configuration
    // is the base of service.self_ns_per_event.
    spans.enabled = true;
    const double clock_ns = clockReadNs();
    const service::ServiceConfig cfg = configFor();
    std::string dir = w.snapshot_every ? cfg.session.durable_dir + "-composed"
                                       : std::string();
    Composed c = composedReplay(s, cfg.session, w.recorder, dir, ref, spans,
                                rep);
    if (!dir.empty())
        std::filesystem::remove_all(dir);
    const LayerClock store = c.query + c.insert + c.remove + c.occupancy;
    const LayerClock inner = store + c.append + c.snapshot;
    const double fed = static_cast<double>(c.events);
    auto perCall = [&](const LayerClock &lc) {
        return lc.calls ? lc.netNs(clock_ns) / static_cast<double>(lc.calls)
                        : 0.0;
    };
    rep.set("core.tracker.self_ns_per_event", selfNs(c.sink, inner, clock_ns) / fed);
    rep.set("core.storage.query_ns", perCall(c.query));
    rep.set("core.storage.insert_ns", perCall(c.insert));
    rep.set("core.storage.remove_ns", perCall(c.remove));
    rep.set("core.storage.peak_entries", static_cast<double>(c.peak_entries));
    rep.set("core.tracker.events", static_cast<double>(c.mem_events));
    rep.set("persist.append_ns", perCall(c.append));
    // The composed replay saw the same streams as the service's
    // sessions, so its own accessors must agree with the service's
    // telemetry.
    auto agree = [&](const char *what, uint64_t composed, uint64_t service) {
        if (composed != service)
            rep.broken(std::string("composed replay ") + what + " " +
                       std::to_string(composed) + " != service " +
                       std::to_string(service));
    };
    agree("memory events", c.mem_events, s.mem_events);
    agree("journal records", c.journal_records,
          counts["persist.wal_records_total"]);
    agree("snapshots", c.snapshots_taken, counts["persist.snapshots_total"]);
    rep.set("persist.wal_bytes", static_cast<double>(c.wal_bytes));
    rep.set("persist.snapshot_ms",
            median(spans.durations("DurableSession::snapshotNow")) * 1e-6);
    rep.set("provenance.records", static_cast<double>(c.prov_records));
    rep.set("provenance.ring_evictions", static_cast<double>(c.prov_evicted));
    const double stream_ns = c.sink.netNs(clock_ns) -
        (c.probe_ns - clock_ns * static_cast<double>(c.probe_calls));
    // pump() drains shards in parallel, so its wall time undercounts
    // the work; self time compares pump CPU time with the serial
    // composed replay.
    rep.set("service.self_ns_per_event",
            submit_ns + pump_cpu * 1e9 / traced_events -
                stream_ns / static_cast<double>(c.events - c.probe_calls));
    if (w.recorder) {
        std::string dir2 = dir.empty() ? dir : dir + "-norec";
        Composed bare = composedReplay(s, cfg.session, false, dir2, ref, spans,
                                       rep);
        if (!dir2.empty())
            std::filesystem::remove_all(dir2);
        // The recorder is fed from inside the tracker (and, on rare
        // evictions, the storage), so its cost is the difference in
        // tracker self time; the whole-stack difference would drown in
        // the storage scan's run-to-run noise.
        const LayerClock bare_inner = bare.query + bare.insert + bare.remove +
            bare.occupancy + bare.append + bare.snapshot;
        rep.set("provenance.ns_per_event",
                (selfNs(c.sink, inner, clock_ns) -
                 selfNs(bare.sink, bare_inner, clock_ns)) / fed);
    }
    spans.enabled = false;
    std::printf("composed replay: %llu events fed, clock read %.1f ns\n",
                static_cast<unsigned long long>(c.events), clock_ns);
}

} // namespace

void
runFleet(const Options &opt, Report &rep, SpanLog &spans)
{
    ServiceWorkload w;
    w.name = "fleet";
    w.shape.tenants = opt.tiny ? 64 : 4096;
    w.shape.per_tenant = opt.tiny ? 128 : 512;
    w.shape.burst_lo = opt.tiny ? 32 : 192;
    w.shape.burst_hi = opt.tiny ? 96 : 320;
    w.shape.segment = opt.tiny ? 1024 : 4096;
    w.shape.probes_per_segment = opt.tiny ? 8 : 40;
    w.shape.maintain_every = opt.tiny ? 4 : 64;
    runService(w, opt, rep, spans);
}

void
runSolo(const Options &opt, Report &rep, SpanLog &spans)
{
    ServiceWorkload w;
    w.name = "solo";
    w.shape.tenants = 1;
    w.shape.per_tenant = 0;
    w.shape.burst_lo = w.shape.burst_hi = 4096;
    w.shape.segment = opt.tiny ? 1024 : 4096;
    // Solo runs only two or three passes, so it probes more than
    // fleet: 28,800 probes per pass fill 28 windows of 1,024.
    w.shape.probes_per_segment = 128;
    w.shape.maintain_every = opt.tiny ? 4 : 64;
    w.recorder = true;
    w.snapshot_every = 16384;
    runService(w, opt, rep, spans);
}

} // namespace perfbench
