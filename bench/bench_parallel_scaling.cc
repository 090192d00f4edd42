/**
 * @file
 * Parallel-scaling bench for the exec pool: run the Figure 11
 * accuracy grid (20 x 10 cells x full labelled suite, one grouped
 * replay per (app, NI) task, DESIGN.md §12) at 1/2/4/8 jobs, check
 * every width reproduces the serial grid exactly, and emit
 * BENCH_parallel.json with events/sec, speedup vs 1 job, and
 * efficiency per width. events/sec counts cells x trace records and
 * `replays_per_run` the (cell, app) verdicts: the work per-cell
 * replay would do, so figures compare across the grouping.
 *
 * One grid lasts about 10-20 ms, the order of the time idle vCPUs of
 * a shared VM take to join a batch, and a VM that sat idle can give
 * the process about one CPU for seconds after it wakes. So widest-
 * width grids first run back to back for kWarmMs (building the shared
 * pool at its final width and waking the machine's CPUs; they join
 * the determinism check), then grids run back to back, one per width
 * in turn, until the serial ones add up to kMinTimedMs; each width's
 * wall_ms is its median grid. Each width's process CPU time over its
 * wall time is printed (stdout only), so a run that misses the bar
 * shows whether the process got parallel CPU at all.
 *
 * The named checks at the end of main() fail the bench (exit 1),
 * including >= 2x at 4 jobs when hardware_jobs >= 4; a sanitizer
 * build skips that bar with a printed note.
 *
 * Run: ./build/bench/bench_parallel_scaling [--out FILE]
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "bench/report.hh"
#include "exec/thread_pool.hh"

using namespace pift;

namespace
{

constexpr int kNiHi = 20;
constexpr int kNtHi = 10;
constexpr unsigned kWidths[] = {1, 2, 4, 8};

/** Widest-width grids run back to back this long before timing. */
constexpr double kWarmMs = 1000.0;
/** The serial grids of a run add up to at least this long... */
constexpr double kMinTimedMs = 500.0;
/** ...over at least this many rounds of one grid per width. */
constexpr size_t kMinRounds = 5;

struct ScalingRun
{
    unsigned jobs = 0;
    double wall_ms = 0.0;
    double events_per_sec = 0.0;
    double speedup = 0.0;
    double efficiency = 0.0;
};

bool
sameGrid(const std::vector<analysis::Accuracy> &a,
         const std::vector<analysis::Accuracy> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].tp != b[i].tp || a[i].fp != b[i].fp ||
            a[i].tn != b[i].tn || a[i].fn != b[i].fn)
            return false;
    return true;
}

/** The grids one width ran: timings, CPU use, agreement. */
struct WidthTiming
{
    std::vector<benchx::Timed> grids;
    double wall_ms = 0.0; //!< sum over grids
    double cpu_ms = 0.0;  //!< CPU time of the whole process, same grids
    bool same = true;     //!< every grid equalled the reference

    /** Run and time one grid at @p jobs, checking it on the way. */
    void
    run(const std::vector<analysis::LabelledTrace> &set,
        uint64_t events, unsigned jobs,
        const std::vector<analysis::Accuracy> &reference)
    {
        std::vector<analysis::Accuracy> grid;
        const std::clock_t cpu0 = std::clock();
        grids.push_back(benchx::timedRun(events, [&] {
            grid = analysis::accuracyGrid(set, kNiHi, kNtHi, true,
                                          jobs);
        }));
        cpu_ms += 1e3 * static_cast<double>(std::clock() - cpu0) /
            CLOCKS_PER_SEC;
        wall_ms += grids.back().wall_ms;
        same = same && sameGrid(grid, reference);
    }

    double
    cpuPerWall() const
    {
        return wall_ms > 0.0 ? cpu_ms / wall_ms : 0.0;
    }

    benchx::Timed
    median()
    {
        auto mid = grids.begin() + grids.size() / 2;
        std::nth_element(grids.begin(), mid, grids.end(),
                         [](const benchx::Timed &a,
                            const benchx::Timed &b) {
                             return a.wall_ms < b.wall_ms;
                         });
        return *mid;
    }
};

/**
 * Time every width over back-to-back grids in rounds of one grid per
 * width, until the serial grids add up to kMinTimedMs (and at least
 * kMinRounds rounds ran). Interleaving the widths spreads a change in
 * the machine's speed over all of them instead of biasing whichever
 * width ran during it.
 */
std::vector<WidthTiming>
timeWidths(const std::vector<analysis::LabelledTrace> &set,
           uint64_t events,
           const std::vector<analysis::Accuracy> &reference)
{
    std::vector<WidthTiming> out(std::size(kWidths));
    while (out[0].wall_ms < kMinTimedMs ||
           out[0].grids.size() < kMinRounds)
        for (size_t w = 0; w < std::size(kWidths); ++w)
            out[w].run(set, events, kWidths[w], reference);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_parallel.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
            return 2;
        }
    }

    benchx::Phase phase("exec-pool scaling on the Figure 11 grid",
                   "parallel sweep engine");

    const auto &set = benchx::suiteTraces();
    uint64_t records = 0;
    for (const auto &item : set)
        records += item.trace.records.size();
    const uint64_t cells =
        static_cast<uint64_t>(kNiHi) * static_cast<uint64_t>(kNtHi);
    const uint64_t events = cells * records;
    const uint64_t replays = cells * set.size();
    const unsigned hardware = exec::hardwareJobs();
    std::printf("workload: %llu cells x %zu apps = %llu replays, "
                "%llu trace events per run\n",
                static_cast<unsigned long long>(cells), set.size(),
                static_cast<unsigned long long>(replays),
                static_cast<unsigned long long>(events));
    std::printf("hardware: %u job(s) available\n\n", hardware);

    // The serial grid pulls trace capture and allocator state off the
    // timed path and is the reference every later grid must equal.
    std::vector<analysis::Accuracy> reference =
        analysis::accuracyGrid(set, kNiHi, kNtHi, true, 1);
    WidthTiming warm;
    const unsigned widest = kWidths[std::size(kWidths) - 1];
    while (warm.wall_ms < kWarmMs)
        warm.run(set, events, widest, reference);
    std::printf("warm-up: %zu grids at %u jobs in %.0f ms, "
                "cpu/wall %.2f\n\n",
                warm.grids.size(), widest, warm.wall_ms,
                warm.cpuPerWall());
    bool deterministic = warm.same;

    std::vector<WidthTiming> timings = timeWidths(set, events, reference);
    std::vector<ScalingRun> runs;
    std::printf("%6s %10s %14s %9s %11s %6s %9s %s\n", "jobs",
                "wall_ms", "events/sec", "speedup", "efficiency",
                "grids", "cpu/wall", "grid");
    for (size_t w = 0; w < std::size(kWidths); ++w) {
        ScalingRun run;
        run.jobs = kWidths[w];
        benchx::Timed t = timings[w].median();
        run.wall_ms = t.wall_ms;
        run.events_per_sec = t.events_per_sec;
        if (runs.empty())
            run.speedup = 1.0;
        else if (run.wall_ms > 0.0)
            run.speedup = runs.front().wall_ms / run.wall_ms;
        run.efficiency = run.speedup / run.jobs;
        deterministic = deterministic && timings[w].same;
        std::printf("%6u %10.1f %14.0f %8.2fx %10.1f%% %6zu %9.2f %s\n",
                    run.jobs, run.wall_ms, run.events_per_sec,
                    run.speedup, 100.0 * run.efficiency,
                    timings[w].grids.size(), timings[w].cpuPerWall(),
                    timings[w].same ? "identical" : "MISMATCH");
        runs.push_back(run);
    }
    std::printf("\n");

    benchx::Report rep("bench_parallel_scaling");
    rep.field("hardware_jobs", hardware, "apps", set.size(),
              "grid_cells", cells, "replays_per_run", replays,
              "events_per_run", events, "deterministic", deterministic);
    rep.array("runs", runs.size(), [&](size_t i) {
        const ScalingRun &r = runs[i];
        rep.field("jobs", r.jobs, "wall_ms", r.wall_ms,
                  "events_per_sec", r.events_per_sec,
                  "speedup", r.speedup, "efficiency", r.efficiency);
    });

    rep.check("deterministic: every width reproduced the serial grid",
              deterministic);
    std::vector<unsigned> widths;
    for (const ScalingRun &r : runs)
        widths.push_back(r.jobs);
    rep.check("runs cover jobs 1, 2, 4, 8 in ascending order",
              widths == std::vector<unsigned>{1, 2, 4, 8});
    rep.check("runs[0].speedup == 1.0",
              !runs.empty() && runs[0].speedup == 1.0);
    rep.check("replays_per_run == grid_cells * apps",
              replays == cells * set.size());
    for (const ScalingRun &r : runs)
        rep.check("efficiency == speedup / jobs within 1% at " +
                      std::to_string(r.jobs) + " jobs",
                  std::fabs(r.efficiency - r.speedup / r.jobs) <=
                      0.01 * std::max(r.efficiency, 1e-9));
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    std::printf("note: sanitizer build, the 2x bar at 4 jobs is "
                "skipped\n");
#else
    auto four = std::find_if(runs.begin(), runs.end(),
                             [](const ScalingRun &r) { return r.jobs == 4; });
    if (hardware >= 4)
        rep.check("speedup >= 2.0 at 4 jobs (hardware_jobs >= 4)",
                  four != runs.end() && four->speedup >= 2.0);
#endif
    return rep.finish(out_path);
}
