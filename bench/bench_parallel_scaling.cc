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
 * a shared VM take to join a batch. So the shared pool is first
 * warmed at the widest width (no width's timing includes building or
 * widening it), then grids run back to back, one per width in turn,
 * until the serial ones add up to kMinTimedMs; each width's wall_ms
 * is its median grid.
 *
 * The report records hardware_jobs so downstream validation can gate
 * speedup expectations on the machine actually having cores: on a
 * 1-CPU container every width degenerates to ~1x and only the
 * determinism check is meaningful.
 *
 * Run: ./build/bench/bench_parallel_scaling [--out FILE]
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "exec/thread_pool.hh"

using namespace pift;

namespace
{

constexpr int kNiHi = 20;
constexpr int kNtHi = 10;
constexpr unsigned kWidths[] = {1, 2, 4, 8};

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

benchx::Timed
timedGrid(const std::vector<analysis::LabelledTrace> &set,
          uint64_t events, unsigned jobs,
          std::vector<analysis::Accuracy> &grid)
{
    return benchx::timedRun(events, [&] {
        grid = analysis::accuracyGrid(set, kNiHi, kNtHi, true, jobs);
    });
}

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

/** One width's timing: the median of its grids. */
struct WidthTiming
{
    std::vector<benchx::Timed> grids;
    bool same = true; //!< every grid equalled the reference

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
    double serial_ms = 0.0;
    while (serial_ms < kMinTimedMs || out[0].grids.size() < kMinRounds) {
        for (size_t w = 0; w < std::size(kWidths); ++w) {
            std::vector<analysis::Accuracy> grid;
            out[w].grids.push_back(
                timedGrid(set, events, kWidths[w], grid));
            out[w].same = out[w].same && sameGrid(grid, reference);
        }
        serial_ms += out[0].grids.back().wall_ms;
    }
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
    std::printf("workload: %llu cells x %zu apps = %llu replays, "
                "%llu trace events per run\n",
                static_cast<unsigned long long>(cells), set.size(),
                static_cast<unsigned long long>(cells * set.size()),
                static_cast<unsigned long long>(events));
    std::printf("hardware: %u job(s) available\n\n",
                exec::hardwareJobs());

    // Warm-up runs: the serial one pulls trace capture and allocator
    // state off the timed path and seeds the reference grid; the
    // widest one builds the shared pool at its final width.
    std::vector<analysis::Accuracy> reference;
    timedGrid(set, events, 1, reference);
    std::vector<analysis::Accuracy> warm;
    timedGrid(set, events, kWidths[std::size(kWidths) - 1], warm);
    bool deterministic = sameGrid(warm, reference);

    std::vector<WidthTiming> timings = timeWidths(set, events, reference);
    std::vector<ScalingRun> runs;
    std::printf("%6s %10s %14s %9s %11s %6s %s\n", "jobs", "wall_ms",
                "events/sec", "speedup", "efficiency", "grids", "grid");
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
        std::printf("%6u %10.1f %14.0f %8.2fx %10.1f%% %6zu %s\n",
                    run.jobs, run.wall_ms, run.events_per_sec,
                    run.speedup, 100.0 * run.efficiency,
                    timings[w].grids.size(),
                    timings[w].same ? "identical" : "MISMATCH");
        runs.push_back(run);
    }
    std::printf("\ndeterminism (every width vs serial grid): %s\n",
                deterministic ? "ok" : "VIOLATED");

    std::ofstream os(out_path, std::ios::binary | std::ios::trunc);
    if (!os) {
        std::fprintf(stderr, "cannot open '%s' for writing\n",
                     out_path.c_str());
        return 2;
    }
    os << "{\n";
    os << "  \"bench\": \"bench_parallel_scaling\",\n";
    os << "  \"hardware_jobs\": " << exec::hardwareJobs() << ",\n";
    os << "  \"apps\": " << set.size() << ",\n";
    os << "  \"grid_cells\": " << cells << ",\n";
    os << "  \"replays_per_run\": " << cells * set.size() << ",\n";
    os << "  \"events_per_run\": " << events << ",\n";
    os << "  \"deterministic\": "
       << (deterministic ? "true" : "false") << ",\n";
    os << "  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const ScalingRun &r = runs[i];
        os << "    {\"jobs\": " << r.jobs << ", \"wall_ms\": "
           << r.wall_ms << ", \"events_per_sec\": "
           << r.events_per_sec << ", \"speedup\": " << r.speedup
           << ", \"efficiency\": " << r.efficiency << "}"
           << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    os.flush();
    if (!os) {
        std::fprintf(stderr, "short write to '%s'\n", out_path.c_str());
        return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());

    return deterministic ? 0 : 1;
}
