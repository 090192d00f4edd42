#include "analysis/evaluate.hh"

#include <algorithm>
#include <memory>

#include "baseline/full_tracker.hh"
#include "core/taint_store.hh"
#include "exec/thread_pool.hh"
#include "telemetry/telemetry.hh"

namespace pift::analysis
{

namespace
{

/** Offline-replay instruments. */
struct EvalTel
{
    telemetry::Counter &replays =
        telemetry::counter("analysis.trace_replays");
};

EvalTel &
etel()
{
    static EvalTel t;
    return t;
}

} // anonymous namespace

bool
piftDetectsLeak(const sim::Trace &trace, const core::PiftParams &params)
{
    etel().replays.inc();
    core::IdealRangeStore store;
    core::PiftTracker tracker(params, store);
    sim::replayBatched(trace, tracker);
    return tracker.anyLeak();
}

bool
piftDetectsLeak(const sim::PackedTrace &packed,
                const core::PiftParams &params)
{
    etel().replays.inc();
    core::IdealRangeStore store;
    core::PiftTracker tracker(params, store);
    sim::replayBatched(packed, tracker);
    return tracker.anyLeak();
}

bool
baselineDetectsLeak(const sim::Trace &trace)
{
    etel().replays.inc();
    baseline::FullTracker tracker;
    sim::replay(trace, tracker);
    return tracker.anyLeak();
}

unsigned
minimalNi(const sim::Trace &trace, unsigned nt, unsigned max_ni,
          unsigned jobs)
{
    unsigned resolved = jobs ? jobs : exec::defaultJobs();
    const sim::PackedTrace packed(trace);
    if (resolved <= 1) {
        // Serial: stop at the first detecting NI.
        for (unsigned ni = 1; ni <= max_ni; ++ni) {
            core::PiftParams params;
            params.ni = ni;
            params.nt = nt;
            if (piftDetectsLeak(packed, params))
                return ni;
        }
        return max_ni + 1;
    }
    // Parallel: speculate over every candidate, keep the smallest.
    std::unique_ptr<uint8_t[]> detects(new uint8_t[max_ni]());
    exec::parallelFor(
        max_ni,
        [&](size_t i) {
            core::PiftParams params;
            params.ni = static_cast<unsigned>(i) + 1;
            params.nt = nt;
            detects[i] = piftDetectsLeak(packed, params) ? 1 : 0;
        },
        resolved);
    for (unsigned ni = 1; ni <= max_ni; ++ni)
        if (detects[ni - 1])
            return ni;
    return max_ni + 1;
}

Accuracy
evaluateAccuracy(const std::vector<LabelledTrace> &set,
                 const core::PiftParams &params)
{
    Accuracy acc;
    for (const auto &item : set) {
        bool detected = piftDetectsLeak(item.trace, params);
        if (item.leaks && detected)
            ++acc.tp;
        else if (item.leaks && !detected)
            ++acc.fn;
        else if (!item.leaks && detected)
            ++acc.fp;
        else
            ++acc.tn;
    }
    return acc;
}

namespace
{

/**
 * The NT groups of one (app, NI) replay (DESIGN.md §12, "Grouped
 * sweep"). A tracker running at NT = lo stands for every NT in
 * [lo, nt_hi] until an in-window store finds lo's budget spent; there
 * it keeps NT = lo alone, and a fork holding a copy of its ranges and
 * its state, the cursor set back to that store, takes lo+1..nt_hi.
 * A group forks at most once, so at most one fork is ever pending.
 */
class NtGroups final : public core::BudgetListener
{
  public:
    NtGroups(const sim::PackedTrace &trace, unsigned window,
             bool untainting)
        : packed(trace), ni(window), untaint(untainting)
    {
    }

    /** Verdict of NT = nt at slot (nt - 1) * stride, nt in [1, nt_hi]. */
    void
    run(unsigned nt_hi, uint8_t *detected, size_t stride)
    {
        auto store = std::make_unique<core::IdealRangeStore>();
        core::TrackerState state;
        for (unsigned lo = 1;; ++lo) {
            bool leak = false;
            forked = false;
            {
                core::PiftParams params;
                params.ni = ni;
                params.nt = lo;
                params.untaint = untaint;
                core::PiftTracker tracker(params, *store);
                tracker.restoreState(state);
                if (lo < nt_hi)
                    tracker.setBudgetListener(this);
                running = store.get();
                etel().replays.inc();
                sim::replayBatchedFrom(packed, tracker, state.records_seen,
                                       state.controls_seen);
                leak = tracker.anyLeak();
            }
            const unsigned hi = forked ? lo : nt_hi;
            for (unsigned nt = lo; nt <= hi; ++nt)
                detected[(nt - 1) * stride] = leak ? 1 : 0;
            if (!forked)
                return;
            store = std::move(fork_store);
            state = std::move(fork_state);
        }
    }

  private:
    void
    budgetSpent(core::PiftTracker &tracker) override
    {
        fork_store = std::make_unique<core::IdealRangeStore>();
        fork_store->copyRangesFrom(*running);
        fork_state = tracker.exportState();
        --fork_state.records_seen; // re-run the splitting store
        forked = true;
        tracker.setBudgetListener(nullptr);
    }

    const sim::PackedTrace &packed;
    const unsigned ni;
    const bool untaint;
    const core::IdealRangeStore *running = nullptr;
    bool forked = false;
    std::unique_ptr<core::IdealRangeStore> fork_store;
    core::TrackerState fork_state;
};

} // anonymous namespace

std::vector<Accuracy>
accuracyGrid(const std::vector<LabelledTrace> &set, int ni_hi,
             int nt_hi, bool untaint, unsigned jobs)
{
    telemetry::Span span("analysis:accuracy_grid", "analysis");
    const size_t cells =
        static_cast<size_t>(ni_hi) * static_cast<size_t>(nt_hi);
    const size_t apps = set.size();

    // Pack every trace once up front: the SoA image is immutable and
    // shared read-only by all (NI) replays of the same app.
    std::vector<sim::PackedTrace> packed;
    packed.reserve(apps);
    for (const auto &item : set)
        packed.emplace_back(item.trace);

    // One task per (app, NI), the largest apps and widest windows
    // first so the long tasks do not start last. Every task owns its
    // trackers and stores, so tasks share nothing mutable, and each
    // writes the verdicts of its own cells only: scheduling order
    // cannot affect them.
    std::vector<size_t> by_size(apps);
    for (size_t ai = 0; ai < apps; ++ai)
        by_size[ai] = ai;
    std::stable_sort(by_size.begin(), by_size.end(),
                     [&](size_t a, size_t b) {
                         return packed[a].memCount() > packed[b].memCount();
                     });
    std::unique_ptr<uint8_t[]> detected(new uint8_t[cells * apps]());
    const size_t nis = static_cast<size_t>(ni_hi);
    exec::parallelFor(
        apps * nis,
        [&](size_t task) {
            const size_t ai = by_size[task / nis];
            const size_t ni = nis - task % nis;
            NtGroups(packed[ai], static_cast<unsigned>(ni), untaint)
                .run(static_cast<unsigned>(nt_hi),
                     &detected[(ni - 1) * apps + ai], nis * apps);
        },
        jobs);

    // Deterministic reduction in fixed (cell, app) order.
    std::vector<Accuracy> grid(cells);
    for (size_t cell = 0; cell < cells; ++cell) {
        for (size_t ai = 0; ai < apps; ++ai) {
            bool hit = detected[cell * apps + ai] != 0;
            if (set[ai].leaks && hit)
                ++grid[cell].tp;
            else if (set[ai].leaks)
                ++grid[cell].fn;
            else if (hit)
                ++grid[cell].fp;
            else
                ++grid[cell].tn;
        }
    }
    return grid;
}

stats::HeatMap
accuracySweep(const std::vector<LabelledTrace> &set, int ni_hi,
              int nt_hi, bool untaint, unsigned jobs)
{
    telemetry::Span span("analysis:accuracy_sweep", "analysis");
    auto grid = accuracyGrid(set, ni_hi, nt_hi, untaint, jobs);
    stats::HeatMap map("NT", 1, nt_hi, "NI", 1, ni_hi);
    for (int nt = 1; nt <= nt_hi; ++nt)
        for (int ni = 1; ni <= ni_hi; ++ni)
            map.set(nt, ni,
                    100.0 * grid[static_cast<size_t>(nt - 1) * ni_hi +
                                 ni - 1].accuracy());
    return map;
}

WindowBound
windowBoundSearch(const std::vector<LabelledTrace> &set, int ni_hi,
                  int nt_hi, unsigned jobs)
{
    auto grid = accuracyGrid(set, ni_hi, nt_hi, true, jobs);
    // Smallest NI first, then smallest NT — the sweep-optimum order
    // the static window derivation is compared against.
    for (int ni = 1; ni <= ni_hi; ++ni) {
        for (int nt = 1; nt <= nt_hi; ++nt) {
            const Accuracy &acc =
                grid[static_cast<size_t>(nt - 1) * ni_hi + ni - 1];
            if (acc.fp == 0 && acc.fn == 0)
                return {static_cast<unsigned>(ni),
                        static_cast<unsigned>(nt)};
        }
    }
    return {};
}

namespace
{

/**
 * Samples the Figure 15/16 series from the tracker's journal. Every
 * effective taint or untaint is journaled before anything else
 * changes, so a record after which the op count moved stamps exactly
 * that op: its cursor, the store's size and the count after it.
 */
class OverheadSampler : public core::MutationJournal
{
  public:
    OverheadSampler(const core::PiftTracker &tracker,
                    const core::TaintStore &store, OverheadResult &out)
        : tracker(tracker), store(store), out(out)
    {
    }

    void
    append(const core::JournalRecord &rec) override
    {
        const core::TrackerStats &stats = tracker.stats();
        const uint64_t ops = stats.taint_ops + stats.untaint_ops;
        if (ops == last_ops)
            return;
        last_ops = ops;
        out.tainted_bytes.record(rec.records_seen,
                                 static_cast<double>(store.bytes()));
        out.cumulative_ops.record(rec.records_seen,
                                  static_cast<double>(ops));
    }

  private:
    const core::PiftTracker &tracker;
    const core::TaintStore &store;
    OverheadResult &out;
    uint64_t last_ops = 0;
};

OverheadResult
measureOverheadImpl(const sim::PackedTrace &packed,
                    const core::PiftParams &params)
{
    etel().replays.inc();
    OverheadResult result;
    core::IdealRangeStore store;
    core::PiftTracker tracker(params, store);
    OverheadSampler sampler(tracker, store, result);
    tracker.setJournal(&sampler);
    sim::replayBatched(packed, tracker);
    result.max_tainted_bytes = tracker.stats().max_tainted_bytes;
    result.max_ranges = tracker.stats().max_ranges;
    result.taint_ops = tracker.stats().taint_ops;
    result.untaint_ops = tracker.stats().untaint_ops;
    result.horizon = packed.trace().records.size();
    return result;
}

} // anonymous namespace

OverheadResult
measureOverhead(const sim::Trace &trace, const core::PiftParams &params)
{
    sim::PackedTrace packed(trace);
    return measureOverheadImpl(packed, params);
}

OverheadResult
measureOverhead(const sim::PackedTrace &packed,
                const core::PiftParams &params)
{
    return measureOverheadImpl(packed, params);
}

} // namespace pift::analysis
