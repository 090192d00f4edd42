/**
 * @file
 * Provenance flight-recorder differential + overhead bench
 * (DESIGN.md §13, ISSUE 9).
 *
 * Four phases:
 *
 *  1. Registry-wide attribution differential: every app replayed
 *     with a recorder attached; every Tainted verdict must resolve
 *     to a complete source→sink chain, every MaybeTainted must cite
 *     a concrete degradation cause, and no Clean verdict may carry
 *     residual taint. Deterministic — CI gates on it hard (exit 1).
 *
 *  2. Fault-attribution sweep: one registry replay per injected
 *     loss-fault class; every MaybeTainted must cite a cause of the
 *     injected family. Deterministic, hard gate.
 *
 *  3. Recorder overhead: interleaved min-of-reps registry replays
 *     with the recorder attached vs detached. Budget <=5%, but the
 *     verdict is informational (wall-clock gates are flaky on
 *     shared runners); `--no-overhead` skips the phase and zeroes
 *     the JSON fields so CI can byte-compare artifacts across
 *     --jobs widths.
 *
 *  4. Ring-capacity sweep: the differential re-run at shrinking
 *     ring capacities, showing completeness degrade *visibly*
 *     (evictions reported, incomplete chains cite ring-evicted)
 *     rather than silently. Informational.
 *
 * Emits BENCH_provenance.json (schemas/bench_provenance.schema.json);
 * the named checks at the end of main() fail the bench (exit 1).
 */

#include "analysis/attribution.hh"
#include "bench/common.hh"
#include "bench/report.hh"
#include "core/taint_storage.hh"
#include "provenance/provenance.hh"
#include "sim/batch.hh"

#include <cstring>
#include <string>
#include <vector>

using namespace pift;

namespace
{

/** Differential totals over all apps (fixed registry order). */
struct DiffTotals
{
    unsigned apps = 0;
    unsigned sinks = 0;
    unsigned explained = 0;
    unsigned tainted = 0;
    unsigned complete_chains = 0;
    unsigned maybe = 0;
    unsigned cited_causes = 0;
    unsigned clean = 0;
    unsigned clean_with_chain = 0;
    uint64_t records = 0;
    uint64_t evicted = 0;
    unsigned longest_chain = 0;
    bool ok = true;
};

DiffTotals
sumRows(const std::vector<analysis::AttributionRow> &rows)
{
    DiffTotals t;
    for (const auto &row : rows) {
        ++t.apps;
        t.sinks += row.sinks;
        t.explained += row.explained;
        t.tainted += row.tainted;
        t.complete_chains += row.complete_chains;
        t.maybe += row.maybe;
        t.cited_causes += row.cited_causes;
        t.clean += row.clean;
        t.clean_with_chain += row.clean_with_chain;
        t.records += row.records;
        t.evicted += row.evicted;
        t.longest_chain = std::max(t.longest_chain,
                                   row.longest_chain);
        t.ok = t.ok && row.ok;
    }
    return t;
}

/** One replay of the whole registry (the overhead workload). */
double
replayRegistry(const std::vector<analysis::LabelledTrace> &set,
               bool with_recorder)
{
    auto t0 = std::chrono::steady_clock::now();
    for (const auto &app : set) {
        core::TaintStorage backend(core::TaintStorageParams{});
        provenance::Recorder rec;
        core::PiftTracker tracker(core::PiftParams{}, backend);
        if (with_recorder) {
            backend.setRecorder(&rec);
            tracker.setRecorder(&rec);
        }
        sim::replayBatched(app.trace, tracker);
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int reps = 5;
    unsigned jobs = 0;
    bool measure_overhead = true;
    std::string out_path = "BENCH_provenance.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
            jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--no-overhead"))
            measure_overhead = false;
        else
            pift_fatal("usage: bench_provenance [--reps N] "
                       "[--out FILE] [--jobs N] [--no-overhead]");
    }
    if (reps < 1)
        reps = 1;

    benchx::Phase phase("taint provenance flight recorder",
                        "ISSUE 9 (explain every sink verdict)");
    setQuiet(true);

    const auto &set = benchx::registryTraces();
    uint64_t total_events = 0;
    for (const auto &app : set)
        total_events += app.trace.records.size();
    std::printf("registry: %zu apps, %llu records, recorder %s\n",
                set.size(),
                static_cast<unsigned long long>(total_events),
                provenance::compiledIn() ? "compiled in"
                                         : "compiled OUT");

    // --- 1. Fault-free attribution differential (hard gate).
    // Sized past the largest registry trace (malware_lgroot, ~284k
    // records) so the gated differential sees zero ring pressure;
    // the capacity sweep below shows what smaller rings cost.
    analysis::AttributionConfig dcfg;
    dcfg.recorder.ring_capacity = 1u << 19;
    dcfg.jobs = jobs;
    auto diff = analysis::attributionDifferential(set, dcfg);
    std::printf("\n--- attribution differential (ring %zu)\n\n%s",
                dcfg.recorder.ring_capacity,
                analysis::formatAttributionTable(diff).c_str());
    DiffTotals totals = sumRows(diff);
    bool diff_ok = analysis::attributionHolds(diff);
    std::printf("\ntotals: %u sinks, %u tainted (%u complete), "
                "%u maybe (%u cited), %u clean — %s\n",
                totals.sinks, totals.tainted, totals.complete_chains,
                totals.maybe, totals.cited_causes, totals.clean,
                diff_ok ? "contract holds" : "CONTRACT VIOLATED");

    // --- 2. Fault-injection attribution sweep (hard gate).
    analysis::FaultAttributionConfig fcfg;
    fcfg.recorder.ring_capacity = 1u << 19;
    fcfg.jobs = jobs;
    auto fault_rows = analysis::faultAttributionSweep(set, fcfg);
    std::printf("\n--- fault attribution sweep (seed %llu, rate "
                "%u/M)\n\n%s",
                static_cast<unsigned long long>(fcfg.seed),
                fcfg.rate_num,
                analysis::formatFaultAttributionTable(fault_rows)
                    .c_str());
    bool fault_ok = analysis::faultAttributionHolds(fault_rows);
    std::printf("\nfault sweep: %s\n",
                fault_ok ? "every cited cause matches the injected "
                           "class"
                         : "ATTRIBUTION VIOLATED");

    // --- 3. Recorder overhead: interleaved min-of-reps, attached
    //        vs detached. Noise only ever inflates a rep, so the
    //        minimum of each leg is the honest comparison.
    double on_ms = 0.0, off_ms = 0.0, overhead_pct = 0.0;
    bool within_budget = true;
    const double budget_pct = 5.0;
    if (measure_overhead) {
        replayRegistry(set, true); // warm-up (trace capture, pages)
        for (int r = 0; r < reps; ++r) {
            double off = replayRegistry(set, false);
            double on = replayRegistry(set, true);
            if (r == 0 || off < off_ms)
                off_ms = off;
            if (r == 0 || on < on_ms)
                on_ms = on;
        }
        overhead_pct = off_ms > 0.0
            ? 100.0 * (on_ms - off_ms) / off_ms
            : 0.0;
        within_budget = overhead_pct <= budget_pct;
        std::printf("\n--- recorder overhead (min of %d reps)\n\n",
                    reps);
        std::printf("%-26s %10.2f ms\n", "recorder detached:",
                    off_ms);
        std::printf("%-26s %10.2f ms\n", "recorder attached:",
                    on_ms);
        std::printf("%-26s %9.1f %% (budget %.0f%%, %s)\n",
                    "recorder overhead:", overhead_pct, budget_pct,
                    within_budget ? "within" : "OVER");
    } else {
        std::printf("\n--- recorder overhead: skipped "
                    "(--no-overhead)\n");
    }

    // --- 4. Ring-capacity sweep: shrink the ring and watch
    //        completeness degrade *reported*, never silently.
    struct RingRow
    {
        size_t capacity = 0;
        DiffTotals t;
        bool contract = false;
    };
    std::vector<RingRow> ring_rows;
    std::printf("\n--- ring-capacity sweep\n\n");
    std::printf("%9s %7s %8s %6s %6s %10s %9s\n", "capacity",
                "tainted", "complete", "maybe", "cited", "evicted",
                "contract");
    for (size_t cap : {size_t(64), size_t(1024), size_t(4096),
                       size_t(65536), size_t(1) << 19}) {
        analysis::AttributionConfig cfg;
        cfg.recorder.ring_capacity = cap;
        cfg.jobs = jobs;
        auto rows = analysis::attributionDifferential(set, cfg);
        RingRow row;
        row.capacity = cap;
        row.t = sumRows(rows);
        row.contract = analysis::attributionHolds(rows);
        ring_rows.push_back(row);
        std::printf("%9zu %7u %8u %6u %6u %10llu %9s\n", cap,
                    row.t.tainted, row.t.complete_chains,
                    row.t.maybe, row.t.cited_causes,
                    static_cast<unsigned long long>(row.t.evicted),
                    row.contract ? "ok" : "degraded");
    }

    // --- JSON artifact.
    const bool compiled_in = provenance::compiledIn();
    benchx::Report rep("bench_provenance");
    rep.field("compiled_in", compiled_in,
              "ring_capacity", dcfg.recorder.ring_capacity,
              "trace_records", total_events);
    rep.object("differential", [&] {
        const DiffTotals &t = totals;
        rep.field("apps", t.apps, "sinks", t.sinks,
                  "explained", t.explained, "tainted", t.tainted,
                  "complete_chains", t.complete_chains,
                  "maybe", t.maybe, "cited_causes", t.cited_causes,
                  "clean", t.clean,
                  "clean_with_chain", t.clean_with_chain,
                  "records", t.records, "evicted", t.evicted,
                  "longest_chain", t.longest_chain, "ok", diff_ok);
    });
    rep.array("fault_sweep", fault_rows.size(), [&](size_t i) {
        const auto &row = fault_rows[i];
        rep.field("fault_class",
                  analysis::faultClassName(row.fault_class),
                  "apps", row.apps, "affected", row.affected,
                  "maybe", row.maybe, "cited", row.cited,
                  "cause_matches", row.cause_matches,
                  "faults", row.faults, "ok", row.ok);
    });
    rep.object("overhead", [&] {
        rep.field("measured", measure_overhead,
                  "reps", measure_overhead ? reps : 0,
                  "recorder_off_ms", off_ms, "recorder_on_ms", on_ms,
                  "overhead_pct", overhead_pct,
                  "budget_pct", budget_pct,
                  "within_budget", within_budget);
    });
    rep.array("ring_sweep", ring_rows.size(), [&](size_t i) {
        const auto &row = ring_rows[i];
        rep.field("capacity", row.capacity, "tainted", row.t.tainted,
                  "complete_chains", row.t.complete_chains,
                  "maybe", row.t.maybe,
                  "cited_causes", row.t.cited_causes,
                  "evicted", row.t.evicted, "contract", row.contract);
    });

    rep.check("differential.ok: every app holds the contract",
              diff_ok);
    rep.check("fault_sweep: every class holds the contract", fault_ok);
    if (compiled_in) {
        rep.check("differential: tainted == complete_chains",
                  totals.tainted == totals.complete_chains);
        rep.check("differential: maybe == cited_causes",
                  totals.maybe == totals.cited_causes);
        rep.check("differential: clean_with_chain == 0",
                  totals.clean_with_chain == 0);
        rep.check("differential: explained == sinks",
                  totals.explained == totals.sinks);
        for (const auto &row : fault_rows)
            rep.check("fault_sweep[" +
                          std::string(analysis::faultClassName(
                              row.fault_class)) +
                          "]: cited == maybe == cause_matches",
                      row.cited == row.maybe &&
                          row.cause_matches == row.maybe);
        rep.check("ring_sweep: the largest ring holds the contract "
                  "with 0 evictions",
                  !ring_rows.empty() && ring_rows.back().contract &&
                      ring_rows.back().t.evicted == 0);
    } else {
        rep.check("compiled out: differential.records == 0",
                  totals.records == 0);
    }
    bool ascending = true;
    for (size_t i = 1; i < ring_rows.size(); ++i)
        ascending = ascending &&
            ring_rows[i - 1].capacity < ring_rows[i].capacity;
    rep.check("ring_sweep: capacities strictly ascending", ascending);
    rep.check("overhead measured => reps >= 1",
              !measure_overhead || reps >= 1);
    std::printf("\n");
    return rep.finish(out_path);
}
