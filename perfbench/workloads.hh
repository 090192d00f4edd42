/**
 * @file
 * The benchmark's three workloads (see README.md for why each one
 * exists) and the set-up they share: capturing the app registry.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analysis/evaluate.hh"
#include "common.hh"

namespace perfbench
{

/** The captured app registry the workloads replay. */
struct Registry
{
    std::vector<pift::analysis::LabelledTrace> apps;
    uint64_t records = 0;   //!< trace records captured, all apps
    double capture_s = 0.0; //!< wall time of the capture
};

/**
 * Capture the 64-app registry (DroidBench suite + malware analogs);
 * the smoke size takes the first eight DroidBench apps only.
 */
Registry captureRegistry(bool tiny);

/** A permutation of [0, n) drawn from @p seed. */
std::vector<size_t> seededOrder(size_t n, uint64_t seed);

/**
 * Repeat a workload's set-up setup_reps times and report the median
 * wall time as setup_s (and the capture share as
 * droidbench.capture_s); the last repetition's result is kept.
 */
template <typename Fn>
auto
repeatSetup(Report &rep, Fn &&build)
{
    std::vector<double> total, capture;
    decltype(build()) kept{};
    for (int i = 0; i < setup_reps; ++i) {
        kept = {}; // release the previous copy before building anew
        uint64_t t0 = nowNs();
        kept = build();
        total.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        capture.push_back(kept.registry.capture_s);
    }
    std::printf("setup_s reps:");
    for (double t : total)
        std::printf(" %.4f", t);
    std::printf("\n");
    rep.set("setup_s", median(total));
    rep.set("droidbench.capture_s", median(capture));
    rep.set("droidbench.records",
            static_cast<double>(kept.registry.records));
    return kept;
}

/**
 * Per-layer counts must repeat exactly for a given seed: every pass
 * replays the same inputs, so each pass's telemetry counters must
 * equal the first pass's.
 */
class CountCheck
{
  public:
    void
    check(const std::map<std::string, uint64_t> &counts, Report &rep)
    {
        if (passes_++ == 0) {
            first_ = counts;
            return;
        }
        if (counts == first_)
            return;
        for (const auto &[name, value] : counts) {
            auto it = first_.find(name);
            uint64_t was = it == first_.end() ? 0 : it->second;
            if (was != value)
                rep.broken("count " + name + " did not repeat: " +
                           std::to_string(was) + " then " +
                           std::to_string(value));
        }
    }

    /** Counter value of the first pass (0 when absent). */
    uint64_t
    operator[](const std::string &name) const
    {
        auto it = first_.find(name);
        return it == first_.end() ? 0 : it->second;
    }

  private:
    std::map<std::string, uint64_t> first_;
    int passes_ = 0;
};

/**
 * Pass-based measurement: another pass starts only while the time
 * measured so far plus the last pass still fits in @p seconds; at
 * least @p min_passes run.
 */
inline bool
anotherPass(double elapsed_s, double last_s, double seconds, int done,
            int min_passes)
{
    return done < min_passes || elapsed_s + last_s <= seconds;
}

void runGrid(const Options &opt, Report &rep, SpanLog &spans);
void runFleet(const Options &opt, Report &rep, SpanLog &spans);
void runSolo(const Options &opt, Report &rep, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
