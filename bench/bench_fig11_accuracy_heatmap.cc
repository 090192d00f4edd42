/**
 * @file
 * Figure 11: DroidBench accuracy over the full parameter grid
 * NI = [1,20] x NT = [1,10] (200 combinations), plus the paper's
 * headline points: ~98% (0% FP, one FN) at NI=13/NT=3, 100% at a
 * wide window, and the GPS (float) leak needing NI >= 10.
 *
 * The 200 x 57 verdicts come from one grouped replay per (app, NI)
 * task on the exec pool (DESIGN.md §12, "Grouped sweep"); `--jobs N`
 * / PIFT_JOBS control the width and every job count prints
 * byte-identical output.
 *
 * Run: ./build/bench/bench_fig11_accuracy_heatmap [--jobs N]
 */

#include "bench/common.hh"
#include "exec/thread_pool.hh"
#include "stats/render.hh"

#include <iostream>

using namespace pift;

int
main(int argc, char **argv)
{
    argc = exec::stripJobsFlag(argc, argv);
    if (argc < 0) {
        std::fprintf(stderr, "usage: %s [--jobs N]\n", argv[0]);
        return 2;
    }

    benchx::Phase phase("Figure 11 — DroidBench accuracy heat map",
                   "Section 5.1, Figure 11");

    const auto &set = benchx::suiteTraces();
    std::printf("suite: %zu apps (41 leaky + 16 benign)\n\n",
                set.size());

    constexpr int ni_hi = 20;
    constexpr int nt_hi = 10;
    auto grid = analysis::accuracyGrid(set, ni_hi, nt_hi);
    auto cell = [&](unsigned ni, unsigned nt) -> analysis::Accuracy & {
        return grid[static_cast<size_t>(nt - 1) * ni_hi + ni - 1];
    };

    stats::HeatMap map("NT", 1, nt_hi, "NI", 1, ni_hi);
    for (int nt = 1; nt <= nt_hi; ++nt)
        for (int ni = 1; ni <= ni_hi; ++ni)
            map.set(nt, ni, 100.0 * cell(ni, nt).accuracy());
    stats::renderHeatMap(std::cout, "accuracy (%) over NT x NI", map,
                         "%8.1f");

    auto a13 = cell(13, 3);
    std::printf("\nheadline points (paper -> measured):\n");
    std::printf("  (NI=13,NT=3): paper 97.9%% (0 FP, 1 FN) -> "
                "measured %.1f%% (%u FP, %u FN)\n",
                100.0 * a13.accuracy(), a13.fp, a13.fn);

    unsigned first_perfect = ni_hi + 1;
    for (unsigned ni = 1; ni <= ni_hi && first_perfect == ni_hi + 1;
         ++ni) {
        auto a = cell(ni, 3);
        if (a.fn == 0 && a.fp == 0)
            first_perfect = ni;
    }
    std::printf("  100%% first reached (NT=3): paper NI=18 -> "
                "measured NI=%u\n", first_perfect);

    // GPS threshold: find the GPS app and report its minimal NI.
    for (const auto &item : set) {
        if (item.name != "GPS_Latitude_Sms")
            continue;
        unsigned min_ni = analysis::minimalNi(item.trace, 3, 30,
                                              exec::defaultJobs());
        std::printf("  GPS (float) leak minimal NI: paper 10 -> "
                    "measured %u\n", min_ni);
    }

    // False positives across the entire grid (paper: none, ever).
    unsigned total_fp = 0;
    for (unsigned nt = 1; nt <= nt_hi; ++nt)
        for (unsigned ni = 1; ni <= ni_hi; ++ni)
            total_fp += cell(ni, nt).fp;
    std::printf("  false positives over all 200 combinations: paper 0 "
                "-> measured %u\n", total_fp);

    std::printf("\nCSV:\n");
    stats::renderHeatMapCsv(std::cout, map);
    return 0;
}
