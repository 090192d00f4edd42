/**
 * @file
 * Single-thread hot-path throughput bench (DESIGN.md §12): one timed
 * section per attack on the serial event path, so each win is
 * attributable, plus a built-in verdict cross-check between the
 * per-event and batched replay pipelines. Emits BENCH_throughput.json
 * (schemas/bench_throughput.schema.json):
 *
 *  - replay_per_event / replay_batched: the full 64-app registry
 *    replayed through PiftTracker via the per-event TraceSink path
 *    vs the SoA batch pipeline (pre-packed, as the grids use it).
 *  - capture_baseline / capture_decode: live execution+capture of
 *    the registry with the decoded-instruction cache off and on.
 *  - lookup_range_set: branchless binary search microbench on the
 *    sorted range store.
 *  - lookup_storage_probe: TaintStorage (LruSpill) query stream with
 *    a miss-heavy working set over the entry index.
 *
 * The named checks at the end of main() fail the bench (exit 1);
 * absolute events/sec is recorded, not judged.
 *
 * Run: ./build/bench/bench_throughput [--out FILE] [--passes N]
 */

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "core/taint_storage.hh"
#include "sim/batch.hh"

using namespace pift;

namespace
{

struct Section
{
    std::string name;
    uint64_t events = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
};

/**
 * Time @p fn (one rep worth of @p events) @p reps times and keep the
 * fastest rep — min-of-N rejects scheduler noise, which on shared
 * machines dwarfs the effects under test.
 */
template <typename Fn>
Section
section(const char *name, unsigned reps, uint64_t events, Fn &&fn)
{
    benchx::Timed best;
    for (unsigned r = 0; r < reps; ++r) {
        benchx::Timed t = benchx::timedRun(events, fn);
        if (r == 0 || t.wall_ms < best.wall_ms)
            best = t;
    }
    std::printf("  %-22s %10.1f ms %14.0f events/sec\n", name,
                best.wall_ms, best.events_per_sec);
    return {name, events, best.wall_ms, best.events_per_sec};
}

/** Leak verdict per registry app under the default window. */
std::vector<bool>
replayVerdicts(const std::vector<analysis::LabelledTrace> &set,
               bool batched)
{
    std::vector<bool> verdicts;
    verdicts.reserve(set.size());
    for (const auto &item : set) {
        core::IdealRangeStore store;
        core::PiftTracker tracker(core::PiftParams{}, store);
        if (batched)
            sim::replayBatched(item.trace, tracker);
        else
            sim::replay(item.trace, tracker);
        verdicts.push_back(tracker.anyLeak());
    }
    return verdicts;
}

/** One live capture of the registry with @p decode_slots cached. */
uint64_t
captureRegistry(size_t decode_slots)
{
    uint64_t records = 0;
    auto runOne = [&](const droidbench::AppEntry &entry) {
        droidbench::AppContext ctx;
        ctx.cpu.setDecodeCache(decode_slots);
        dalvik::MethodId main = entry.declare(ctx);
        ctx.vm.boot();
        ctx.vm.execute(main);
        records += ctx.buffer.trace().records.size();
    };
    for (const auto &entry : droidbench::droidBenchApps())
        runOne(entry);
    for (const auto &entry : droidbench::malwareApps())
        runOne(entry);
    return records;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_throughput.json";
    unsigned passes = 150;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--passes") == 0 &&
                   i + 1 < argc) {
            passes = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            if (passes == 0)
                passes = 1;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out FILE] [--passes N]\n",
                         argv[0]);
            return 2;
        }
    }

    benchx::Phase phase("single-thread hot-path throughput",
                        "hot-path raw speed (ROADMAP)");

    const auto &set = benchx::registryTraces();
    uint64_t records = 0;
    for (const auto &item : set)
        records += item.trace.records.size();
    std::printf("workload: %zu apps, %llu records/pass, %u passes\n\n",
                set.size(), static_cast<unsigned long long>(records),
                passes);

    std::vector<Section> sections;

    // --- Attack 2+3: offline replay, per-event vs batched. Both
    // sides burn identical tracker work; the packed images are built
    // once up front exactly as the accuracy grids amortize them.
    std::vector<sim::PackedTrace> packed;
    packed.reserve(set.size());
    for (const auto &item : set)
        packed.emplace_back(item.trace);

    core::PiftParams params; // paper default window
    constexpr unsigned reps = 5;
    const unsigned rep_passes = passes >= reps ? passes / reps : 1;
    const uint64_t replay_events = records * rep_passes;

    replayVerdicts(set, false); // warm-up (allocator, caches)
    sections.push_back(section(
        "replay_per_event", reps, replay_events, [&] {
            for (unsigned p = 0; p < rep_passes; ++p)
                for (const auto &item : set) {
                    core::IdealRangeStore store;
                    core::PiftTracker tracker(params, store);
                    sim::replay(item.trace, tracker);
                }
        }));
    sections.push_back(section(
        "replay_batched", reps, replay_events, [&] {
            for (unsigned p = 0; p < rep_passes; ++p)
                for (const auto &pt : packed) {
                    core::IdealRangeStore store;
                    core::PiftTracker tracker(params, store);
                    sim::replayBatched(pt, tracker);
                }
        }));

    // Verdict differential: the batched pipeline must report exactly
    // the per-event leaks on every registry app.
    bool verdicts_identical =
        replayVerdicts(set, false) == replayVerdicts(set, true);
    std::printf("  verdicts (batched vs per-event): %s\n",
                verdicts_identical ? "identical" : "MISMATCH");

    // --- Attack 1: live capture with the decoded-instruction cache
    // toggled. Fewer passes: execution dominates.
    const unsigned cap_passes =
        rep_passes >= 10 ? rep_passes / 10 : 1;
    captureRegistry(0); // warm-up
    const uint64_t cap_events = records * cap_passes;
    sections.push_back(
        section("capture_baseline", reps, cap_events, [&] {
            for (unsigned p = 0; p < cap_passes; ++p)
                captureRegistry(0);
        }));
    sections.push_back(
        section("capture_decode", reps, cap_events, [&] {
            for (unsigned p = 0; p < cap_passes; ++p)
                captureRegistry(4096);
        }));

    // --- Attack 3 microbenches. Fixed seed: identical streams every
    // run and on every machine.
    std::mt19937 rng(20160402u);
    std::uniform_int_distribution<uint32_t> addr_dist(0, 1u << 20);

    taint::RangeSet rset;
    for (uint32_t i = 0; i < 64; ++i)
        rset.insert(taint::AddrRange(i * 16384u, i * 16384u + 63u));
    const uint64_t probes = 4'000'000;
    std::vector<Addr> probe_addrs(1024);
    for (auto &a : probe_addrs)
        a = addr_dist(rng);
    uint64_t sink = 0; // defeat dead-code elimination
    sections.push_back(
        section("lookup_range_set", reps, probes, [&] {
            for (uint64_t i = 0; i < probes; ++i)
                sink += rset.contains(probe_addrs[i & 1023]);
        }));

    // The storage stream models the tracker's dominant pattern: a hot
    // loop re-querying a small set of untainted locations. Each probe
    // searches the index over 64 live entries.
    core::TaintStorageParams sp;
    core::TaintStorage storage(sp);
    for (uint32_t i = 0; i < 64; ++i)
        storage.insert(1, taint::AddrRange(i * 16384u,
                                           i * 16384u + 63u));
    const uint64_t storage_probes = 1'000'000;
    sections.push_back(
        section("lookup_storage_probe", reps, storage_probes, [&] {
            for (uint64_t i = 0; i < storage_probes; ++i) {
                Addr a = probe_addrs[i & 63];
                sink += storage.query(1, taint::AddrRange(a, a + 3));
            }
        }));
    std::printf("  lookup checksum bit: %llu\n",
                static_cast<unsigned long long>(sink & 1));

    // Each speedup: its numerator section's events/sec over its
    // denominator's (section names).
    struct Speedup
    {
        const char *key, *num, *den;
        double value = 0.0;
    };
    auto ratio = [&](const Speedup &sp_row) {
        double num = 0.0, den = 0.0;
        for (const Section &s : sections) {
            num = s.name == sp_row.num ? s.events_per_sec : num;
            den = s.name == sp_row.den ? s.events_per_sec : den;
        }
        return den > 0.0 ? num / den : 0.0;
    };
    Speedup speedups[] = {
        {"replay_batched_vs_per_event", "replay_batched",
         "replay_per_event"},
        {"capture_decode_vs_baseline", "capture_decode",
         "capture_baseline"}};
    for (Speedup &sp_row : speedups)
        sp_row.value = ratio(sp_row);
    std::printf("\nspeedups: batched replay %.2fx, decode cache "
                "%.2fx\n", speedups[0].value, speedups[1].value);

    benchx::Report rep("bench_throughput");
    rep.field("apps", set.size(), "records_per_pass", records,
              "reps", reps, "replay_passes_per_rep", rep_passes,
              "capture_passes_per_rep", cap_passes,
              "verdicts_identical", verdicts_identical);
    rep.object("speedups", [&] {
        for (const Speedup &sp_row : speedups)
            rep.field(sp_row.key, sp_row.value);
    });
    rep.array("sections", sections.size(), [&](size_t i) {
        const Section &s = sections[i];
        rep.field("name", s.name, "events", s.events,
                  "wall_ms", s.wall_ms,
                  "events_per_sec", s.events_per_sec);
    });

    rep.check("verdicts_identical: batched replay reports the "
              "per-event verdicts",
              verdicts_identical);
    const std::vector<std::string> expected = {
        "replay_per_event", "replay_batched",   "capture_baseline",
        "capture_decode",   "lookup_range_set", "lookup_storage_probe"};
    std::vector<std::string> names;
    for (const Section &s : sections) {
        names.push_back(s.name);
        rep.check("sections[" + s.name + "].wall_ms > 0",
                  s.wall_ms > 0.0);
    }
    rep.check("sections are the six expected, in order",
              names == expected);
    for (const Speedup &sp_row : speedups) {
        const double expect = ratio(sp_row);
        rep.check(std::string("speedups.") + sp_row.key +
                      " == its section ratio within 1%",
                  expect > 0.0 &&
                      std::fabs(sp_row.value - expect) <=
                          0.01 * expect);
    }
    rep.check("speedups.replay_batched_vs_per_event >= 1.0",
              speedups[0].value >= 1.0);
    return rep.finish(out_path);
}
