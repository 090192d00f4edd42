/**
 * @file
 * Replay-based evaluation: detection verdicts, accuracy sweeps
 * (Figure 11), and overhead measurements (Figures 14-19).
 *
 * Captured traces are replayed offline under arbitrary (NI, NT,
 * untainting) settings — the methodology of the paper's Section 5,
 * where gem5 instruction traces plus the printed source/sink ranges
 * were fed into the PIFT analysis code.
 */

#ifndef PIFT_ANALYSIS_EVALUATE_HH
#define PIFT_ANALYSIS_EVALUATE_HH

#include <string>
#include <vector>

#include "core/pift_tracker.hh"
#include "sim/batch.hh"
#include "sim/trace.hh"
#include "stats/heatmap.hh"
#include "stats/timeseries.hh"

namespace pift::analysis
{

/**
 * Replay @p trace under @p params; true when any sink saw taint.
 * Runs the batched pipeline (sim/batch.hh), which is verdict- and
 * stats-identical to per-event replay (tests/test_batch.cc).
 */
bool piftDetectsLeak(const sim::Trace &trace,
                     const core::PiftParams &params);

/**
 * piftDetectsLeak() over a pre-packed trace — callers replaying the
 * same capture many times (grids, sweeps) pack once and reuse.
 */
bool piftDetectsLeak(const sim::PackedTrace &packed,
                     const core::PiftParams &params);

/** Replay under the full register-level DIFT baseline. */
bool baselineDetectsLeak(const sim::Trace &trace);

/**
 * Smallest NI in [1, max_ni] at which PIFT (with @p nt) detects the
 * leak, or max_ni + 1 when it never does. With @p jobs != 1 the NI
 * candidates replay concurrently (no early exit); the result is
 * identical at every job count.
 */
unsigned minimalNi(const sim::Trace &trace, unsigned nt,
                   unsigned max_ni = 30, unsigned jobs = 1);

/** Confusion-matrix counts over a labelled app set. */
struct Accuracy
{
    unsigned tp = 0, fp = 0, tn = 0, fn = 0;

    unsigned total() const { return tp + fp + tn + fn; }

    double
    accuracy() const
    {
        return total()
            ? static_cast<double>(tp + tn) / static_cast<double>(total())
            : 0.0;
    }
};

/** A captured app run with its ground-truth label. */
struct LabelledTrace
{
    std::string name;
    bool leaks = false;
    sim::Trace trace;
};

/** Evaluate one parameter point over a labelled set. */
Accuracy evaluateAccuracy(const std::vector<LabelledTrace> &set,
                          const core::PiftParams &params);

/**
 * Confusion matrices for every grid cell NI = [1, ni_hi] x
 * NT = [1, nt_hi], row-major by NT then NI (cell (nt, ni) at index
 * (nt-1)*ni_hi + ni-1). Each (app, NI) pair is one task on the exec
 * pool that answers all its NT cells in one grouped replay, forking
 * only where the NT budget splits them (DESIGN.md §12, "Grouped
 * sweep"); every cell equals piftDetectsLeak on that cell. Tasks own
 * their trackers and stores and results are reduced in fixed order,
 * so they are identical at every job count (@p jobs; 0 =
 * exec::defaultJobs()).
 */
std::vector<Accuracy>
accuracyGrid(const std::vector<LabelledTrace> &set, int ni_hi,
             int nt_hi, bool untaint = true, unsigned jobs = 0);

/**
 * The Figure 11 sweep: accuracy (%) over NI = [1, ni_hi] x
 * NT = [1, nt_hi]. Rows are NT, columns NI, matching the figure.
 * Runs accuracyGrid(); deterministic at every @p jobs.
 */
stats::HeatMap accuracySweep(const std::vector<LabelledTrace> &set,
                             int ni_hi = 20, int nt_hi = 10,
                             bool untaint = true, unsigned jobs = 0);

/** Result of the window-bound grid search. */
struct WindowBound
{
    unsigned ni = 0, nt = 0; //!< 0 = no perfect point in the grid

    bool found() const { return ni != 0; }
};

/**
 * Smallest (NI, then NT) in the grid at which the sweep reaches 100%
 * (0 FP, 0 FN) — the Figure 11 optimum the static window derivation
 * is compared against. Runs accuracyGrid(); deterministic at every
 * @p jobs.
 */
WindowBound windowBoundSearch(const std::vector<LabelledTrace> &set,
                              int ni_hi = 20, int nt_hi = 10,
                              unsigned jobs = 0);

/** Per-replay cost/footprint measurements (Figures 14-19). */
struct OverheadResult
{
    uint64_t max_tainted_bytes = 0; //!< Figure 14 cell
    uint64_t max_ranges = 0;        //!< Figure 17 cell
    uint64_t taint_ops = 0;
    uint64_t untaint_ops = 0;
    stats::TimeSeries tainted_bytes;  //!< Figure 15 series
    stats::TimeSeries cumulative_ops; //!< Figure 16 series
    SeqNum horizon = 0;               //!< trace length
};

/**
 * Replay @p trace under @p params recording the Figure 14-19
 * metrics. Sink checks still run but are ignored.
 */
OverheadResult measureOverhead(const sim::Trace &trace,
                               const core::PiftParams &params);

/** measureOverhead() over a pre-packed trace. */
OverheadResult measureOverhead(const sim::PackedTrace &packed,
                               const core::PiftParams &params);

} // namespace pift::analysis

#endif // PIFT_ANALYSIS_EVALUATE_HH
