/**
 * @file
 * pift_cli — command-line front end to the reproduction.
 *
 * Subcommands:
 *   list                         all benchmark apps with categories
 *   run <app> [NI NT]            run one app, print the verdict
 *   sweep <app> [maxNI]          minimal-NI table for one app
 *   capture <app> <file>         save the app's trace to disk
 *   replay <file> [NI NT]        evaluate a saved trace
 *   static-check [app]           verify bytecode + static taint oracle
 *   policy [app]                 per-app static policy table (NI, NT,
 *                                untaint mode, implicit risk) and the
 *                                joined device-wide window
 *   telemetry [options]          replay the registry under telemetry,
 *                                print a metrics snapshot, write
 *                                BENCH_telemetry.json (+ trace files);
 *                                exit 1 if instrument names are not
 *                                unique and sorted or a histogram's
 *                                buckets do not sum to its count
 *   explain <app> [--pid P]      replay one app under the provenance
 *                                flight recorder and print the causal
 *                                chain (or degradation cause) behind
 *                                every sink verdict; --dot/--jsonl
 *                                export the flow graph;
 *                                --service-queue N replays through a
 *                                bounded-queue tracking service so
 *                                backpressure-induced MaybeTainted
 *                                verdicts are attributed too
 *   snapshot <app> <dir>         run an app through the durable stack,
 *                                leaving snapshot.pift + wal.pift
 *   recover <dir>                reconstruct state from a durable dir
 *                                (--resume <app> re-drives the tail)
 *   fleet <snapshot...>          census table over snapshot files
 *
 * Global option: --jobs N bounds exec-pool parallelism for the
 * commands that fan replays out (sweep); output is byte-identical at
 * every N. PIFT_JOBS=N in the environment does the same.
 *
 * Examples:
 *   ./build/examples/pift_cli list
 *   ./build/examples/pift_cli run GPS_Latitude_Sms 13 3
 *   ./build/examples/pift_cli capture malware_lgroot /tmp/lg.trace
 *   ./build/examples/pift_cli replay /tmp/lg.trace 3 2
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/evaluate.hh"
#include "analysis/offline.hh"
#include "bench/report.hh"
#include "core/taint_store.hh"
#include "exec/thread_pool.hh"
#include "dalvik/disasm.hh"
#include "droidbench/app.hh"
#include "droidbench/static_oracle.hh"
#include "faults/fault_injector.hh"
#include "persist/durable.hh"
#include "persist/recovery.hh"
#include "provenance/provenance.hh"
#include "service/service.hh"
#include "sim/batch.hh"
#include "sim/trace_io.hh"
#include "static/oracle.hh"
#include "static/policy.hh"
#include "static/verifier.hh"
#include "static/window.hh"
#include "telemetry/telemetry.hh"

using namespace pift;

namespace
{

/**
 * Parse a positive count that round-trips through size_t — the same
 * hardening parseJobs applies to --jobs. @return 0 for malformed,
 * non-positive, or out-of-range values (0 is never a valid count).
 */
size_t
parseCount(const char *s)
{
    if (!s || !*s)
        return 0;
    if (std::strchr(s, '-')) // strtoull wraps negatives silently
        return 0;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end || errno == ERANGE || v < 1 ||
        v > std::numeric_limits<size_t>::max())
        return 0;
    return static_cast<size_t>(v);
}

const droidbench::AppEntry *
findApp(const std::string &name)
{
    for (const auto &entry : droidbench::droidBenchApps())
        if (entry.name == name)
            return &entry;
    for (const auto &entry : droidbench::malwareApps())
        if (entry.name == name)
            return &entry;
    return nullptr;
}

int
cmdList()
{
    std::printf("%-36s %-16s %s\n", "app", "category", "ground truth");
    for (const auto &entry : droidbench::droidBenchApps())
        std::printf("%-36s %-16s %s\n", entry.name.c_str(),
                    entry.category.c_str(),
                    entry.leaks ? "leaks" : "benign");
    for (const auto &entry : droidbench::malwareApps())
        std::printf("%-36s %-16s %s\n", entry.name.c_str(),
                    entry.category.c_str(), "leaks");
    return 0;
}

int
cmdRun(const std::string &name, unsigned ni, unsigned nt)
{
    const auto *entry = findApp(name);
    if (!entry) {
        std::fprintf(stderr, "unknown app '%s' (try 'list')\n",
                     name.c_str());
        return 2;
    }
    auto run = droidbench::runApp(*entry);
    core::PiftParams p{ni, nt, true};
    bool pift = analysis::piftDetectsLeak(run.trace, p);
    bool full = analysis::baselineDetectsLeak(run.trace);

    std::printf("app: %s (%s, ground truth: %s)\n",
                entry->name.c_str(), entry->category.c_str(),
                entry->leaks ? "leaks" : "benign");
    std::printf("trace: %zu records, %zu source/sink events\n",
                run.trace.records.size(), run.trace.controls.size());
    for (const auto &call : run.sink_calls)
        std::printf("sink payload: \"%s\"\n", call.payload.c_str());
    std::printf("PIFT (NI=%u, NT=%u): %s\n", ni, nt,
                pift ? "LEAK DETECTED" : "clean");
    std::printf("full DIFT baseline: %s\n",
                full ? "LEAK DETECTED" : "clean");
    return 0;
}

int
cmdSweep(const std::string &name, unsigned max_ni)
{
    const auto *entry = findApp(name);
    if (!entry) {
        std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
        return 2;
    }
    auto run = droidbench::runApp(*entry);
    std::printf("%-4s %s\n", "NT", "minimal NI");
    for (unsigned nt = 1; nt <= 5; ++nt) {
        unsigned min_ni = analysis::minimalNi(run.trace, nt, max_ni,
                                              exec::defaultJobs());
        if (min_ni > max_ni)
            std::printf("%-4u never (<= %u)\n", nt, max_ni);
        else
            std::printf("%-4u %u\n", nt, min_ni);
    }
    return 0;
}

int
cmdDump(const std::string &name)
{
    const auto *entry = findApp(name);
    if (!entry) {
        std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
        return 2;
    }
    droidbench::AppContext ctx;
    size_t preinstalled = ctx.dex.methodCount();
    dalvik::MethodId main_id = entry->declare(ctx);
    // Print the app's own methods (everything it registered), main
    // last for readability.
    for (dalvik::MethodId id = static_cast<dalvik::MethodId>(
             preinstalled);
         id < ctx.dex.methodCount(); ++id) {
        if (id == main_id)
            continue;
        std::printf("%s\n", dalvik::disassemble(
            ctx.dex.method(id)).c_str());
    }
    std::printf("%s\n",
                dalvik::disassemble(ctx.dex.method(main_id)).c_str());
    return 0;
}

int
cmdCapture(const std::string &name, const std::string &path)
{
    const auto *entry = findApp(name);
    if (!entry) {
        std::fprintf(stderr, "unknown app '%s'\n", name.c_str());
        return 2;
    }
    auto run = droidbench::runApp(*entry);
    if (auto st = sim::saveTrace(path, run.trace); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    std::printf("wrote %zu records to %s\n", run.trace.records.size(),
                path.c_str());
    return 0;
}

int
cmdReplay(const std::string &path, unsigned ni, unsigned nt)
{
    sim::Trace trace;
    if (auto st = sim::loadTrace(path, trace); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    core::PiftParams p{ni, nt, true};
    bool pift = analysis::piftDetectsLeak(trace, p);
    std::printf("%zu records; PIFT (NI=%u, NT=%u): %s\n",
                trace.records.size(), ni, nt,
                pift ? "LEAK DETECTED" : "clean");
    return 0;
}

int
staticCheckApp(const droidbench::AppEntry &entry)
{
    droidbench::AppContext ctx;
    dalvik::MethodId main_id = entry.declare(ctx);

    unsigned errors = 0;
    unsigned warnings = 0;
    for (size_t id = 0; id < ctx.dex.methodCount(); ++id) {
        const auto &m =
            ctx.dex.method(static_cast<dalvik::MethodId>(id));
        auto result = static_analysis::verifyMethod(m, &ctx.dex);
        errors += result.errorCount();
        warnings += result.warningCount();
        for (const auto &d : result.diagnostics)
            std::printf("  %s: %s\n", m.name.c_str(),
                        static_analysis::formatDiagnostic(d).c_str());
    }

    auto oracle = static_analysis::runOracle(
        ctx.dex, main_id, droidbench::oracleConfigFor(ctx));
    std::printf("%-36s verify: %u error(s), %u warning(s); "
                "oracle: %s (truth: %s)\n",
                entry.name.c_str(), errors, warnings,
                oracle.leaks ? "leaks" : "benign",
                entry.leaks ? "leaks" : "benign");
    for (const auto &sink : oracle.leak_sinks)
        std::printf("  tainted data reaches sink %s\n", sink.c_str());
    return errors ? 1 : 0;
}

int
cmdStaticCheck(const std::string &name)
{
    if (!name.empty()) {
        const auto *entry = findApp(name);
        if (!entry) {
            std::fprintf(stderr, "unknown app '%s' (try 'list')\n",
                         name.c_str());
            return 2;
        }
        return staticCheckApp(*entry);
    }
    int rc = 0;
    for (const auto &entry : droidbench::droidBenchApps())
        rc |= staticCheckApp(entry);
    for (const auto &entry : droidbench::malwareApps())
        rc |= staticCheckApp(entry);
    return rc;
}

/**
 * Per-app static policy table. Every row is derived without
 * executing the app: the call-graph walk collects the opcodes and
 * branches the app can reach, the two oracle modes decide whether it
 * carries implicit risk, and the window derivation turns that into
 * per-app (NI, NT) plus the untaint mode. The joined row is the
 * device-wide policy a fleet operator would load.
 */
int
cmdPolicy(const std::string &name)
{
    auto policies =
        droidbench::derivePolicies(droidbench::droidBenchApps());
    auto malware =
        droidbench::derivePolicies(droidbench::malwareApps());
    policies.insert(policies.end(), malware.begin(), malware.end());

    if (!name.empty()) {
        for (const auto &p : policies) {
            if (p.app != name)
                continue;
            std::printf("%s", static_analysis::formatPolicyTable(
                                  {p}).c_str());
            return 0;
        }
        std::fprintf(stderr, "unknown app '%s' (try 'list')\n",
                     name.c_str());
        return 2;
    }

    std::printf("%s",
                static_analysis::formatPolicyTable(policies).c_str());
    auto joined = static_analysis::joinPolicies(policies);
    auto derivation = static_analysis::deriveWindowBounds();
    unsigned risky = 0;
    for (const auto &p : policies)
        risky += p.implicit_risk ? 1 : 0;
    std::printf("\njoined device policy: NI=%d NT=%d (%u risky "
                "app(s); global derivation NI=%d NT=%d)\n",
                joined.ni, joined.nt, risky, derivation.derived_ni,
                derivation.derived_nt);
    return joined.ni == derivation.derived_ni &&
                   joined.nt == derivation.derived_nt
               ? 0
               : 1;
}

/**
 * Exercise the faults layer under telemetry so the snapshot and the
 * Chrome trace cover faults.* instruments too: one LGRoot replay
 * through a lossy stream and a flaky taint store.
 */
void
telemetryFaultsPhase(const sim::Trace &trace)
{
    telemetry::Span span("phase:faults", "cli");
    faults::FaultConfig fc;
    fc.seed = 42;
    fc.drop_num = 20'000;        // 2% of each fault class
    fc.dup_num = 20'000;
    fc.insert_fail_num = 20'000;
    fc.forced_evict_num = 20'000;
    faults::FaultInjector inj(fc);
    core::IdealRangeStore store;
    faults::FaultyTaintStore fstore(inj, store);
    core::PiftTracker tracker({13, 3, true}, fstore);
    faults::FaultyStream stream(inj, tracker);
    sim::replay(trace, stream);
    stream.flush();
}

int
cmdTelemetry(int argc, char **argv)
{
    std::string out_path = "BENCH_telemetry.json";
    std::string trace_path;
    std::string jsonl_path;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--registry") {
            // Default mode; accepted for explicitness (CI uses it).
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--jsonl" && i + 1 < argc) {
            jsonl_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: pift_cli telemetry [--registry] "
                         "[--out FILE] [--trace FILE] [--jsonl FILE]\n");
            return 2;
        }
    }

    if (!telemetry::compiledIn())
        std::printf("note: telemetry compiled out "
                    "(PIFT_TELEMETRY=OFF); counters read zero\n");

    // Replay the full 64-app registry. runApp/piftDetectsLeak emit
    // droidbench.* spans and core.* counters as a side effect.
    uint64_t apps = 0;
    uint64_t records_replayed = 0;
    core::PiftParams params; // the paper's (13, 3)
    sim::Trace lgroot;
    auto t0 = std::chrono::steady_clock::now();
    {
        telemetry::Span span("phase:registry", "cli");
        for (const auto *registry : {&droidbench::droidBenchApps(),
                                     &droidbench::malwareApps()}) {
            for (const auto &entry : *registry) {
                auto run = droidbench::runApp(entry);
                (void)analysis::piftDetectsLeak(run.trace, params);
                records_replayed += run.trace.records.size();
                ++apps;
                if (entry.name == "malware_lgroot")
                    lgroot = std::move(run.trace);
            }
        }
    }
    telemetryFaultsPhase(lgroot);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const double events_per_sec = wall_ms > 0.0
        ? 1000.0 * static_cast<double>(records_replayed) / wall_ms
        : 0.0;

    // Human-readable snapshot.
    auto snaps = telemetry::snapshot();
    std::printf("%-44s %-10s %s\n", "instrument", "kind", "value");
    for (const auto &s : snaps) {
        switch (s.kind) {
        case telemetry::Kind::Counter:
            std::printf("%-44s %-10s %llu\n", s.name.c_str(),
                        "counter",
                        static_cast<unsigned long long>(s.value));
            break;
        case telemetry::Kind::Gauge:
            std::printf("%-44s %-10s %lld (peak %lld)\n",
                        s.name.c_str(), "gauge",
                        static_cast<long long>(s.gauge_value),
                        static_cast<long long>(s.gauge_peak));
            break;
        case telemetry::Kind::Histogram:
            std::printf("%-44s %-10s count=%llu sum=%llu "
                        "p50=%.1f p95=%.1f p99=%.1f\n",
                        s.name.c_str(), "histogram",
                        static_cast<unsigned long long>(s.count),
                        static_cast<unsigned long long>(s.sum),
                        s.p50, s.p95, s.p99);
            break;
        }
    }
    std::printf("%zu instruments; %zu apps, %llu records in %.1f ms\n",
                snaps.size(), static_cast<size_t>(apps),
                static_cast<unsigned long long>(records_replayed),
                wall_ms);

    // Fold the final counter values into the span stream so the
    // Chrome trace carries the instrument names alongside the spans.
    telemetry::sampleRegistryToTracer();

    benchx::Report rep("pift_cli_telemetry");
    rep.field("telemetry_compiled", telemetry::compiledIn(), "apps",
              apps, "records_replayed", records_replayed, "wall_ms",
              wall_ms, "events_per_sec", events_per_sec);
    rep.object("spans", [&] {
        rep.field("recorded", telemetry::tracer().events().size(),
                  "dropped", telemetry::tracer().dropped());
    });
    rep.array("instruments", snaps.size(), [&](size_t i) {
        const telemetry::InstrumentSnap &s = snaps[i];
        rep.field("name", s.name);
        switch (s.kind) {
        case telemetry::Kind::Counter:
            rep.field("kind", "counter", "value", s.value);
            break;
        case telemetry::Kind::Gauge:
            rep.field("kind", "gauge", "value", s.gauge_value, "peak",
                      s.gauge_peak);
            break;
        case telemetry::Kind::Histogram:
            rep.field("kind", "histogram", "count", s.count, "sum",
                      s.sum);
            rep.array("buckets", s.buckets.size(), [&](size_t b) {
                const telemetry::BucketSnap &bucket = s.buckets[b];
                if (bucket.le == telemetry::bucket_overflow)
                    rep.field("le", "+inf");
                else
                    rep.field("le", bucket.le);
                rep.field("count", bucket.count);
            });
            rep.field("p50", s.p50, "p95", s.p95, "p99", s.p99);
            break;
        }
    });

    // The report's invariants: instrument names unique and sorted
    // (snapshot determinism), and each histogram's bucket counts
    // summing to its count.
    bool sorted = true;
    for (size_t i = 1; i < snaps.size(); ++i)
        sorted = sorted && snaps[i - 1].name < snaps[i].name;
    rep.check("instrument names unique and sorted", sorted);
    for (const auto &s : snaps) {
        if (s.kind != telemetry::Kind::Histogram)
            continue;
        uint64_t total = 0;
        for (const auto &b : s.buckets)
            total += b.count;
        rep.check("histogram " + s.name +
                      ": bucket counts sum to count",
                  total == s.count);
    }
    const int rc = rep.finish(out_path);
    if (rc == 2)
        return 2;
    if (!trace_path.empty()) {
        if (auto err = telemetry::saveChromeTrace(trace_path);
            !err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
        std::printf("wrote %s (open at chrome://tracing)\n",
                    trace_path.c_str());
    }
    if (!jsonl_path.empty()) {
        if (auto err = telemetry::saveJsonl(jsonl_path);
            !err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
        std::printf("wrote %s\n", jsonl_path.c_str());
    }
    return rc;
}

/**
 * Run one app through the durable stack, leaving snapshot.pift and
 * wal.pift in @p dir. The final snapshotNow() persists the end-of-run
 * state, so `recover` on the directory reproduces it exactly.
 */
int
cmdSnapshot(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: pift_cli snapshot <app> <dir> "
                             "[--every N] [NI NT]\n");
        return 2;
    }
    std::string name = argv[2];
    std::string dir = argv[3];
    uint64_t every = 0;
    unsigned ni = 13, nt = 3;
    int pos = 0;
    for (int i = 4; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--every" && i + 1 < argc) {
            every = static_cast<uint64_t>(atoll(argv[++i]));
        } else if (pos == 0) {
            ni = static_cast<unsigned>(atoi(argv[i]));
            ++pos;
        } else {
            nt = static_cast<unsigned>(atoi(argv[i]));
            ++pos;
        }
    }
    const auto *entry = findApp(name);
    if (!entry) {
        std::fprintf(stderr, "unknown app '%s' (try 'list')\n",
                     name.c_str());
        return 2;
    }
    auto run = droidbench::runApp(*entry);

    core::TaintStorage storage(core::TaintStorageParams{});
    core::PiftTracker tracker(core::PiftParams{ni, nt, true}, storage);
    persist::DurableSession session(storage, tracker,
                                    {dir, every, true});
    if (auto st = session.start(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    tracker.setJournal(&session);
    sim::replay(run.trace, tracker);
    if (auto st = session.snapshotNow(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    if (auto st = session.close(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.message().c_str());
        return 2;
    }
    std::printf("%s: %llu journal records, %llu snapshot(s), "
                "final epoch %llu -> %s\n",
                entry->name.c_str(),
                static_cast<unsigned long long>(
                    session.recordsLogged()),
                static_cast<unsigned long long>(
                    session.snapshotsTaken()),
                static_cast<unsigned long long>(session.epoch()),
                dir.c_str());
    return 0;
}

/**
 * Reconstruct the latest consistent state from a durable directory;
 * with --resume, re-drive the app's trace from the recovered cursor
 * and report the sink verdicts of the completed run.
 */
int
cmdRecover(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: pift_cli recover <dir> [--resume <app>]\n");
        return 2;
    }
    std::string dir = argv[2];
    std::string resume;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--resume" && i + 1 < argc) {
            resume = argv[++i];
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 2;
        }
    }

    auto rec = persist::recover(dir, core::TaintStorageParams{});
    std::printf("%s\n", persist::formatRecovery(rec).c_str());

    core::TaintStorage storage(rec.state.storage.params);
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::restoreInto(rec, storage, tracker);

    if (!resume.empty()) {
        const auto *entry = findApp(resume);
        if (!entry) {
            std::fprintf(stderr, "unknown app '%s' (try 'list')\n",
                         resume.c_str());
            return 2;
        }
        auto run = droidbench::runApp(*entry);
        sim::replayFrom(run.trace, tracker,
                        rec.state.tracker.records_seen,
                        rec.state.tracker.controls_seen);
        std::printf("resumed %s from cursor\n", entry->name.c_str());
    }

    auto final_state = tracker.exportState();
    for (const auto &s : final_state.sinks) {
        const char *verdict =
            s.verdict == core::SinkVerdict::Tainted ? "TAINTED"
            : s.verdict == core::SinkVerdict::MaybeTainted
                ? "maybe-tainted"
                : "clean";
        std::printf("sink %u pid %u [0x%x,0x%x]: %s\n", s.sink_id,
                    s.pid, s.range.start, s.range.end, verdict);
    }
    return rec.corruption_detected ? 1 : 0;
}

/** Census over a fleet of snapshot files (see analysis/offline.hh). */
int
cmdFleet(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: pift_cli fleet <snapshot.pift...>\n");
        return 2;
    }
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i)
        paths.push_back(argv[i]);
    auto rows = analysis::snapshotCensus(paths, exec::defaultJobs());
    std::printf("%s", analysis::formatSnapshotCensus(rows).c_str());
    for (const auto &row : rows)
        if (!row.ok)
            return 1;
    return 0;
}

int
cmdExplain(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: pift_cli explain <app> [--pid P] "
                     "[--service-queue N] "
                     "[--dot FILE] [--jsonl FILE] [NI NT]\n");
        return 2;
    }
    const auto *entry = findApp(argv[2]);
    if (!entry) {
        std::fprintf(stderr, "unknown app '%s' (try 'list')\n",
                     argv[2]);
        return 2;
    }
    bool pid_given = false;
    ProcId pid = 0;
    std::string dot_path, jsonl_path;
    unsigned ni = 13, nt = 3;
    size_t service_queue = 0;
    int pos = 0;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pid") && i + 1 < argc) {
            pid_given = true;
            pid = static_cast<ProcId>(atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--service-queue") &&
                   i + 1 < argc) {
            service_queue = parseCount(argv[++i]);
            if (!service_queue) {
                std::fprintf(stderr,
                             "--service-queue needs a positive "
                             "integer, got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--dot") && i + 1 < argc) {
            dot_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--jsonl") &&
                   i + 1 < argc) {
            jsonl_path = argv[++i];
        } else if (pos == 0 && atoi(argv[i]) >= 1) {
            ni = static_cast<unsigned>(atoi(argv[i]));
            ++pos;
        } else if (pos == 1 && atoi(argv[i]) >= 1) {
            nt = static_cast<unsigned>(atoi(argv[i]));
            ++pos;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    if (!provenance::compiledIn()) {
        std::printf("note: provenance compiled out "
                    "(-DPIFT_PROVENANCE=OFF); nothing to explain\n");
        return 0;
    }

    auto run = droidbench::runApp(*entry);
    std::printf("app: %s (%s, ground truth: %s)\n",
                entry->name.c_str(), entry->category.c_str(),
                entry->leaks ? "leaks" : "benign");

    std::vector<provenance::Explanation> exps;
    if (service_queue > 0) {
        // Deployment-shaped replay: the app's events go through a
        // single-shard bounded-queue TrackingService with no pump
        // between submissions, so a small queue genuinely refuses
        // events. Every refusal degrades the pid and leaves a
        // StreamLoss record; sinks are held back and re-checked
        // after the drain so each verdict reflects the loss, and
        // the explanations below attribute it.
        service::ServiceConfig cfg;
        cfg.shards = 1;
        cfg.queue_capacity = service_queue;
        cfg.session.params = core::PiftParams{ni, nt, true};
        cfg.session.provenance = true;
        cfg.session.ring_capacity = 1u << 19;
        service::TrackingService svc(cfg);
        ProcId spid = pid_given ? pid : 7;
        auto evs = service::eventsFromTrace(run.trace, spid);
        std::vector<service::ServiceEvent> feed;
        feed.reserve(evs.size());
        for (const auto &ev : evs)
            if (ev.kind != service::EventKind::Sink)
                feed.push_back(ev);
        svc.submitMany(feed.data(), feed.size());
        svc.pump();
        auto st = svc.stats();
        std::printf("service: queue=%zu submitted=%llu refused=%llu"
                    " (each refusal -> MaybeTainted + StreamLoss)\n",
                    service_queue,
                    static_cast<unsigned long long>(st.submitted),
                    static_cast<unsigned long long>(st.overflowed));
        for (const auto &ev : evs)
            if (ev.kind == service::EventKind::Sink)
                svc.checkSinkNow(spid, ev.start, ev.end, ev.id);
        const provenance::Recorder *rec = svc.recorderFor(spid);
        if (rec) {
            std::printf("recorder: %llu records (%llu ring-evicted),"
                        " NI=%u NT=%u\n\n",
                        static_cast<unsigned long long>(
                            rec->totalRecorded()),
                        static_cast<unsigned long long>(
                            rec->totalEvicted()),
                        ni, nt);
            exps = provenance::explainPid(*rec, spid);
        }
    } else {
        core::TaintStorage storage(core::TaintStorageParams{});
        // Sized past the largest registry trace so no evidence is
        // ever ring-evicted in an interactive explanation.
        provenance::RecorderParams rp;
        rp.ring_capacity = 1u << 19;
        provenance::Recorder rec(rp);
        core::PiftTracker tracker(core::PiftParams{ni, nt, true},
                                  storage);
        storage.setRecorder(&rec);
        tracker.setRecorder(&rec);
        sim::replayBatched(run.trace, tracker);
        std::printf("recorder: %llu records (%llu ring-evicted), "
                    "NI=%u NT=%u\n\n",
                    static_cast<unsigned long long>(
                        rec.totalRecorded()),
                    static_cast<unsigned long long>(
                        rec.totalEvicted()),
                    ni, nt);
        exps = pid_given ? provenance::explainPid(rec, pid)
                         : provenance::explainAll(rec);
    }
    if (exps.empty()) {
        std::printf("no sink checks recorded%s\n",
                    pid_given ? " for that pid" : "");
    }
    for (const auto &e : exps)
        std::printf("%s\n",
                    provenance::formatExplanation(e).c_str());

    if (!dot_path.empty()) {
        std::ofstream os(dot_path,
                         std::ios::binary | std::ios::trunc);
        if (!os) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         dot_path.c_str());
            return 2;
        }
        provenance::writeFlowGraphDot(os, exps,
                                      entry->name.c_str());
        std::printf("wrote %s (dot -Tsvg to render)\n",
                    dot_path.c_str());
    }
    if (!jsonl_path.empty()) {
        std::ofstream os(jsonl_path,
                         std::ios::binary | std::ios::trunc);
        if (!os) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         jsonl_path.c_str());
            return 2;
        }
        provenance::writeExplanationsJsonl(os, exps);
        std::printf("wrote %s\n", jsonl_path.c_str());
    }
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: pift_cli list\n"
                 "       pift_cli run <app> [NI NT]\n"
                 "       pift_cli sweep <app> [maxNI]\n"
                 "       pift_cli dump <app>\n"
                 "       pift_cli capture <app> <file>\n"
                 "       pift_cli replay <file> [NI NT]\n"
                 "       pift_cli static-check [app]\n"
                 "       pift_cli policy [app]\n"
                 "       pift_cli telemetry [--registry] [--out FILE]"
                 " [--trace FILE] [--jsonl FILE]\n"
                 "       pift_cli explain <app> [--pid P]"
                 " [--service-queue N]"
                 " [--dot FILE] [--jsonl FILE] [NI NT]\n"
                 "       pift_cli snapshot <app> <dir> [--every N]"
                 " [NI NT]\n"
                 "       pift_cli recover <dir> [--resume <app>]\n"
                 "       pift_cli fleet <snapshot.pift...>\n"
                 "global option: --jobs N (exec-pool width; also "
                 "PIFT_JOBS=N)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    argc = exec::stripJobsFlag(argc, argv);
    if (argc < 2) {
        usage();
        return 2;
    }
    std::string cmd = argv[1];
    auto num = [&](int idx, unsigned def) {
        return idx < argc ? static_cast<unsigned>(atoi(argv[idx]))
                          : def;
    };
    if (cmd == "list")
        return cmdList();
    if (cmd == "run" && argc >= 3)
        return cmdRun(argv[2], num(3, 13), num(4, 3));
    if (cmd == "sweep" && argc >= 3)
        return cmdSweep(argv[2], num(3, 25));
    if (cmd == "dump" && argc >= 3)
        return cmdDump(argv[2]);
    if (cmd == "capture" && argc >= 4)
        return cmdCapture(argv[2], argv[3]);
    if (cmd == "replay" && argc >= 3)
        return cmdReplay(argv[2], num(3, 13), num(4, 3));
    if (cmd == "static-check")
        return cmdStaticCheck(argc >= 3 ? argv[2] : "");
    if (cmd == "policy")
        return cmdPolicy(argc >= 3 ? argv[2] : "");
    if (cmd == "telemetry")
        return cmdTelemetry(argc, argv);
    if (cmd == "explain")
        return cmdExplain(argc, argv);
    if (cmd == "snapshot")
        return cmdSnapshot(argc, argv);
    if (cmd == "recover")
        return cmdRecover(argc, argv);
    if (cmd == "fleet")
        return cmdFleet(argc, argv);
    usage();
    return 2;
}
