/**
 * @file
 * `grid`: the offline Figure 11 sweep, analysis::accuracyGrid over the
 * captured registry at NI 1-20 x NT 1-10 with untainting on, on the
 * exec pool. Batched sim replay, the tracker and IdealRangeStore do all
 * the work; TaintStorage, service, persist and provenance do none.
 */

#include <algorithm>
#include <memory>

#include "exec/thread_pool.hh"
#include "layers.hh"
#include "sim/batch.hh"
#include "support/rng.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace pift;

namespace
{

struct GridInputs
{
    Registry registry;
};

uint64_t
memEvents(const sim::Trace &trace)
{
    uint64_t n = 0;
    for (const auto &r : trace.records)
        n += r.mem_kind != sim::MemKind::None;
    return n;
}

core::PiftParams
cellParams(size_t cell, int ni_hi)
{
    core::PiftParams p;
    p.nt = static_cast<unsigned>(cell / static_cast<size_t>(ni_hi)) + 1;
    p.ni = static_cast<unsigned>(cell % static_cast<size_t>(ni_hi)) + 1;
    p.untaint = true;
    return p;
}

/**
 * The correctness reference: does the per-event sim::replay of app
 * @p ai under cell @p cell's parameters detect a leak? Indexed
 * [cell * apps + ai], like accuracyGrid's task grid.
 */
std::vector<uint8_t>
referenceDetections(const std::vector<analysis::LabelledTrace> &apps,
                    size_t cells, int ni_hi, bool plant_defect,
                    unsigned jobs)
{
    std::vector<uint8_t> out(cells * apps.size());
    exec::parallelFor(
        out.size(),
        [&](size_t task) {
            const size_t ai = task % apps.size();
            core::IdealRangeStore ideal;
            DropFirstInsert defect(ideal);
            core::TaintStore &store =
                plant_defect ? static_cast<core::TaintStore &>(defect)
                             : ideal;
            core::PiftTracker tracker(cellParams(task / apps.size(), ni_hi),
                                      store);
            sim::replay(apps[ai].trace, tracker);
            out[task] = tracker.anyLeak() ? 1 : 0;
        },
        jobs);
    return out;
}

/** Confusion matrices from per-(cell, app) detections. */
std::vector<analysis::Accuracy>
reduceGrid(const std::vector<analysis::LabelledTrace> &apps,
           const std::vector<uint8_t> &detected, size_t cells)
{
    std::vector<analysis::Accuracy> grid(cells);
    for (size_t cell = 0; cell < cells; ++cell)
        for (size_t ai = 0; ai < apps.size(); ++ai) {
            bool hit = detected[cell * apps.size() + ai] != 0;
            analysis::Accuracy &a = grid[cell];
            if (apps[ai].leaks)
                ++(hit ? a.tp : a.fn);
            else
                ++(hit ? a.fp : a.tn);
        }
    return grid;
}

bool
sameCell(const analysis::Accuracy &a, const analysis::Accuracy &b)
{
    return a.tp == b.tp && a.fp == b.fp && a.tn == b.tn && a.fn == b.fn;
}

} // namespace

void
runGrid(const Options &opt, Report &rep, SpanLog &spans)
{
    const int ni_hi = opt.tiny ? 4 : 20;
    const int nt_hi = opt.tiny ? 2 : 10;
    const size_t cells = static_cast<size_t>(ni_hi) * nt_hi;

    GridInputs in = repeatSetup(rep, [&] {
        GridInputs g;
        g.registry = captureRegistry(opt.tiny);
        // The seed rotates the registry order, and with it the task
        // order on the pool; the confusion counts do not depend on it.
        auto &apps = g.registry.apps;
        std::vector<analysis::LabelledTrace> rotated;
        rotated.reserve(apps.size());
        for (size_t i : seededOrder(apps.size(), opt.seed))
            rotated.push_back(std::move(apps[i]));
        apps = std::move(rotated);
        return g;
    });
    const auto &apps = in.registry.apps;
    const size_t napps = apps.size();

    uint64_t sweep_events = 0;
    for (const auto &a : apps)
        sweep_events += memEvents(a.trace) * cells;

    // Correctness reference, outside set-up and the timed region.
    const std::vector<uint8_t> ref =
        referenceDetections(apps, cells, ni_hi, opt.plant_defect, opt.jobs);
    const std::vector<analysis::Accuracy> ref_grid =
        reduceGrid(apps, ref, cells);

    CountCheck counts;
    auto sweep = [&](std::vector<double> &rates, std::vector<double> &busy) {
        resetTelemetry();
        const double cpu0 = cpuSeconds();
        const uint64_t t0 = nowNs();
        std::vector<analysis::Accuracy> got;
        {
            Scoped span(spans, "accuracyGrid");
            got = analysis::accuracyGrid(apps, ni_hi, nt_hi, true, opt.jobs);
        }
        const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
        busy.push_back((cpuSeconds() - cpu0) / (wall * opt.jobs));
        rates.push_back(static_cast<double>(sweep_events) / wall);

        uint64_t bad = got.size() == cells ? 0 : std::max(cells, got.size());
        for (size_t c = 0; bad == 0 && c < cells; ++c)
            bad += !sameCell(got[c], ref_grid[c]);
        rep.attempt(cells);
        rep.failOps(bad, "grid cells differ from the per-event sim::replay "
                         "reference");
        counts.check(telemetryCounters(), rep);
    };

    // Sink probes: one (cell, app) verdict each — a piftDetectsLeak
    // replay, the offline pipeline's unit of answer — checked against
    // the reference detection. A window probes every app equally often,
    // and each app's cells are stratified over the grid (one per equal
    // slice of the cell range, at a seeded offset), so every window has
    // the same app mix and an even spread of cells: a verdict on the
    // largest app, which makes up the tail, costs up to five times as
    // much at some cells as at others, so unstratified draws moved the
    // p99 from window to window.
    std::vector<std::unique_ptr<sim::PackedTrace>> probe_packs;
    if (!opt.trace)
        for (const auto &a : apps)
            probe_packs.push_back(std::make_unique<sim::PackedTrace>(a.trace));
    Rng probe_rng(opt.seed * 0x2545f4914f6cdd1dull + 0x51);
    const size_t per_app = (sample_window + napps - 1) / napps;
    std::vector<std::vector<double>> lat_us; // one group per window
    auto probeWindow = [&] {
        resetTelemetry();
        std::vector<double> &window = lat_us.emplace_back();
        std::vector<size_t> offset(napps);
        for (size_t &o : offset)
            o = probe_rng.below(cells);
        uint64_t bad = 0;
        for (size_t i = 0; i < sample_window; ++i) {
            const size_t ai = i % napps;
            const size_t cell = (i / napps * cells + offset[ai]) / per_app;
            const uint64_t t0 = nowNs();
            bool hit = analysis::piftDetectsLeak(*probe_packs[ai],
                                                 cellParams(cell, ni_hi));
            window.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            bad += hit != (ref[cell * napps + ai] != 0);
        }
        rep.attempt(sample_window);
        rep.failOps(bad, "sink probes differ from the reference");
    };

    // The untraced run alternates sweeps with probe windows, so both
    // see the same stretch of machine time; the traced run's two
    // halves (spans off, then on) time sweeps only.
    auto measure = [&](bool traced, std::vector<double> &rates,
                       std::vector<double> &busy) {
        spans.enabled = traced;
        double elapsed = 0.0, last = 0.0;
        int done = 0;
        while (anotherPass(elapsed, last, opt.seconds, done, 3)) {
            const uint64_t t0 = nowNs();
            sweep(rates, busy);
            if (!opt.trace)
                probeWindow();
            last = static_cast<double>(nowNs() - t0) * 1e-9;
            elapsed += last;
            ++done;
        }
        spans.enabled = false;
    };

    std::vector<double> rates, busy;
    measure(false, rates, busy);
    rep.set("events_per_s", median(rates));
    std::printf("grid: %zu apps, %zu cells, %llu memory events per sweep, "
                "%zu sweeps\n",
                napps, cells, static_cast<unsigned long long>(sweep_events),
                rates.size());
    if (!opt.trace) {
        rep.set("sink_p50_us", groupedQuantile(lat_us, 0.50));
        rep.set("sink_p99_us", groupedQuantile(lat_us, 0.99));
        std::printf("sink_samples %zu in %zu windows\n",
                    lat_us.size() * sample_window, lat_us.size());
        return;
    }

    // Traced run: the same sweeps with spans on, then a composed
    // replay for the sim / tracker / store split.
    std::vector<double> traced_rates, traced_busy;
    measure(true, traced_rates, traced_busy);
    rep.set("trace.overhead_ratio", median(rates) / median(traced_rates));
    rep.set("analysis.grid_s", median(spans.durations("accuracyGrid")) * 1e-9);
    rep.set("exec.busy_share", median(traced_busy));
    rep.set("exec.tasks", static_cast<double>(cells * napps));
    rep.set("analysis.replays", counts["analysis.trace_replays"]);
    rep.set("sim.batches", counts["sim.batch.batches"]);
    rep.set("core.tracker.events", static_cast<double>(sweep_events));
    rep.set("core.tracker.windows_opened",
            counts["core.tracker.windows_opened"]);
    rep.set("core.tracker.windows_renewed",
            counts["core.tracker.windows_renewed"]);
    rep.set("core.tracker.stores_tainted",
            counts["core.tracker.stores_tainted"]);
    rep.set("core.tracker.stores_untainted",
            counts["core.tracker.stores_untainted"]);
    rep.set("core.tracker.sink_checks",
            counts["core.tracker.sinks_clean"] +
                counts["core.tracker.sinks_tainted"] +
                counts["core.tracker.sinks_maybe"]);
    rep.set("core.ideal_store.ops",
            counts["core.range_store.queries"] +
                counts["core.range_store.inserts"] +
                counts["core.range_store.removes"]);

    spans.enabled = true;
    const double clock_ns = clockReadNs();
    LayerClock pack, replay, sink, store;
    std::vector<std::unique_ptr<sim::PackedTrace>> packed;
    for (size_t ai = 0; ai < napps; ++ai) {
        Scoped span(spans, "PackedTrace", static_cast<uint32_t>(ai));
        timeInto(pack, [&] {
            packed.push_back(std::make_unique<sim::PackedTrace>(apps[ai].trace));
        });
    }
    // Ten seeded cells of the grid (two at the smoke size).
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0xce11);
    std::vector<size_t> sample = seededOrder(cells, rng.next());
    sample.resize(opt.tiny ? 2 : 10);
    uint64_t events = 0;
    for (size_t cell : sample)
        for (size_t ai = 0; ai < napps; ++ai) {
            core::IdealRangeStore ideal;
            TimedStore timed(ideal);
            core::PiftTracker tracker(cellParams(cell, ni_hi), timed);
            TimedSink timed_sink(tracker);
            {
                Scoped span(spans, "replayBatched", static_cast<uint32_t>(ai));
                timeInto(replay,
                         [&] { sim::replayBatched(*packed[ai], timed_sink); });
            }
            sink = sink + timed_sink.clock;
            store = store + timed.total();
            events += packed[ai]->memCount();
        }
    spans.enabled = false;
    const double ev = static_cast<double>(events);
    rep.set("sim.pack_s", pack.netNs(clock_ns) * 1e-9);
    rep.set("sim.replay_self_ns_per_event", selfNs(replay, sink, clock_ns) / ev);
    rep.set("core.tracker.self_ns_per_event", selfNs(sink, store, clock_ns) / ev);
    rep.set("core.ideal_store.ns_per_op",
            store.calls ? store.netNs(clock_ns) / static_cast<double>(store.calls)
                        : 0.0);
    std::printf("composed replay: %zu cells x %zu apps, %llu memory events, "
                "clock read %.1f ns\n",
                sample.size(), napps, static_cast<unsigned long long>(events),
                clock_ns);
}

} // namespace perfbench
