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
 * The report records hardware_jobs so downstream validation can gate
 * speedup expectations on the machine actually having cores: on a
 * 1-CPU container every width degenerates to ~1x and only the
 * determinism check is meaningful.
 *
 * Run: ./build/bench/bench_parallel_scaling [--out FILE]
 */

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "exec/thread_pool.hh"

using namespace pift;

namespace
{

constexpr int kNiHi = 20;
constexpr int kNtHi = 10;

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

    // Warm-up run: pulls trace capture and allocator state off the
    // timed path, and seeds the reference grid.
    std::vector<analysis::Accuracy> reference;
    timedGrid(set, events, 1, reference);

    bool deterministic = true;
    std::vector<ScalingRun> runs;
    std::printf("%6s %10s %14s %9s %11s %s\n", "jobs", "wall_ms",
                "events/sec", "speedup", "efficiency", "grid");
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<analysis::Accuracy> grid;
        ScalingRun run;
        run.jobs = jobs;
        benchx::Timed t = timedGrid(set, events, jobs, grid);
        run.wall_ms = t.wall_ms;
        run.events_per_sec = t.events_per_sec;
        if (runs.empty())
            run.speedup = 1.0;
        else if (run.wall_ms > 0.0)
            run.speedup = runs.front().wall_ms / run.wall_ms;
        run.efficiency = run.speedup / jobs;
        bool same = sameGrid(grid, reference);
        deterministic = deterministic && same;
        std::printf("%6u %10.1f %14.0f %8.2fx %10.1f%% %s\n", jobs,
                    run.wall_ms, run.events_per_sec, run.speedup,
                    100.0 * run.efficiency,
                    same ? "identical" : "MISMATCH");
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
