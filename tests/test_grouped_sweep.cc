/**
 * @file
 * The grouped Figure 11 sweep against per-cell replay (DESIGN.md §12,
 * "Grouped sweep"). analysis::accuracyGrid replays each (app, NI) once
 * and forks its tracker only where an in-window store finds the NT
 * budget spent, so every cell of every grid must still equal
 * piftDetectsLeak on that cell: over the whole 64-app registry, with
 * untainting on and off, and over seeded synthetic captures built to
 * hit the window and budget boundaries exactly, at 1 and 70 NT values
 * and at pool widths 1 and 4.
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "analysis/evaluate.hh"
#include "droidbench/app.hh"
#include "exec/thread_pool.hh"
#include "sim/batch.hh"
#include "sim/trace.hh"

using namespace pift;

namespace
{

/** The full 64-app registry, captured once per process. */
std::vector<analysis::LabelledTrace> &
registry()
{
    static std::vector<analysis::LabelledTrace> set = [] {
        std::vector<analysis::LabelledTrace> out;
        for (const auto *apps : {&droidbench::droidBenchApps(),
                                 &droidbench::malwareApps()})
            for (const auto &entry : *apps)
                out.push_back({entry.name, entry.leaks,
                               droidbench::runApp(entry).trace});
        return out;
    }();
    return set;
}

/**
 * piftDetectsLeak on every cell of the NI = [1, ni_hi] x NT = [1, nt_hi]
 * grid, indexed like accuracyGrid's task grid: [cell * apps + app].
 */
std::vector<uint8_t>
perCellVerdicts(const std::vector<analysis::LabelledTrace> &set,
                int ni_hi, int nt_hi, bool untaint)
{
    std::vector<std::unique_ptr<sim::PackedTrace>> packed;
    for (const auto &item : set)
        packed.push_back(std::make_unique<sim::PackedTrace>(item.trace));
    const size_t apps = set.size();
    const size_t cells = static_cast<size_t>(ni_hi) * nt_hi;
    std::vector<uint8_t> out(cells * apps);
    exec::parallelFor(out.size(), [&](size_t task) {
        const size_t cell = task / apps;
        core::PiftParams params;
        params.nt = static_cast<unsigned>(cell / ni_hi) + 1;
        params.ni = static_cast<unsigned>(cell % ni_hi) + 1;
        params.untaint = untaint;
        out[task] = analysis::piftDetectsLeak(*packed[task % apps], params);
    });
    return out;
}

std::string
cellName(size_t cell, int ni_hi)
{
    return "NI " + std::to_string(cell % ni_hi + 1) + " NT " +
        std::to_string(cell / ni_hi + 1);
}

/**
 * The grouped sweep equals the per-cell reference: confusion counts of
 * the whole set at each width in @p widths, and every (cell, app)
 * verdict through one single-app grid per app (each app is moved into
 * its own set and back, so no trace is copied). Returns the reference.
 */
std::vector<uint8_t>
expectGroupedMatchesPerCell(std::vector<analysis::LabelledTrace> &set,
                            int ni_hi, int nt_hi, bool untaint,
                            std::initializer_list<unsigned> widths)
{
    const std::vector<uint8_t> ref =
        perCellVerdicts(set, ni_hi, nt_hi, untaint);
    const size_t apps = set.size();
    const size_t cells = static_cast<size_t>(ni_hi) * nt_hi;

    std::vector<analysis::Accuracy> want(cells);
    for (size_t cell = 0; cell < cells; ++cell)
        for (size_t ai = 0; ai < apps; ++ai) {
            const bool hit = ref[cell * apps + ai] != 0;
            analysis::Accuracy &a = want[cell];
            if (set[ai].leaks)
                ++(hit ? a.tp : a.fn);
            else
                ++(hit ? a.fp : a.tn);
        }
    for (unsigned jobs : widths) {
        auto got = analysis::accuracyGrid(set, ni_hi, nt_hi, untaint, jobs);
        EXPECT_EQ(got.size(), cells);
        if (got.size() != cells)
            return ref;
        for (size_t cell = 0; cell < cells; ++cell) {
            EXPECT_EQ(got[cell].tp, want[cell].tp)
                << cellName(cell, ni_hi) << " jobs " << jobs;
            EXPECT_EQ(got[cell].fp, want[cell].fp)
                << cellName(cell, ni_hi) << " jobs " << jobs;
            EXPECT_EQ(got[cell].tn, want[cell].tn)
                << cellName(cell, ni_hi) << " jobs " << jobs;
            EXPECT_EQ(got[cell].fn, want[cell].fn)
                << cellName(cell, ni_hi) << " jobs " << jobs;
        }
    }

    // Verdict by verdict: a one-app grid's counts are that app's
    // verdicts, so offsetting errors in two apps cannot cancel out.
    std::vector<analysis::LabelledTrace> one(1);
    for (size_t ai = 0; ai < apps; ++ai) {
        one[0] = std::move(set[ai]);
        auto got = analysis::accuracyGrid(one, ni_hi, nt_hi, untaint,
                                          *widths.begin());
        set[ai] = std::move(one[0]);
        for (size_t cell = 0; cell < cells; ++cell)
            EXPECT_EQ(got[cell].tp + got[cell].fp,
                      static_cast<unsigned>(ref[cell * apps + ai]))
                << set[ai].name << " " << cellName(cell, ni_hi);
    }
    return ref;
}

/**
 * A seeded capture built to split the NT groups in every way: 1-3
 * interleaved pids, each with its own source (pid 1's registered
 * twice), a ClearAll halfway with sources registered again, and a few
 * sinks, some inside open windows. Most stores come in unbroken runs
 * straight after a load, so store k of a run sits at exactly ltlt + k
 * and the run crosses the budget of every NT up to its length (up to
 * 80, past the largest NT tested). A sink checks a slot written by
 * one store alone, right after it, so its verdict turns on that
 * store's distance and budget, and on the chain of loads before it.
 */
sim::Trace
syntheticTrace(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    auto below = [&](uint64_t n) { return rng() % n; };
    const unsigned npids = 1 + static_cast<unsigned>(seed % 3);
    constexpr unsigned slots = 48;
    auto slotAddr = [](uint64_t i) { return 0x1000 + 16 * i; };

    sim::Trace t;
    std::vector<SeqNum> local(npids + 1, 0);
    auto control = [&](sim::ControlKind kind, ProcId pid, uint64_t slot,
                       uint32_t id) {
        sim::ControlEvent ev;
        ev.seq = t.records.size();
        ev.kind = kind;
        ev.pid = pid;
        ev.start = slotAddr(slot);
        ev.end = ev.start + 7;
        ev.id = id;
        t.controls.push_back(ev);
    };
    auto sources = [&] {
        for (ProcId pid = 1; pid <= npids; ++pid)
            control(sim::ControlKind::RegisterSource, pid, pid, pid);
    };
    sources();
    control(sim::ControlKind::RegisterSource, 1, 1, 1);

    // Per pid, the records of its current episode, emitted in bursts
    // interleaved with the other pids'.
    struct Planned
    {
        sim::MemKind kind = sim::MemKind::None;
        uint64_t slot = 0;
        int sink = -1; //!< >= 0: check this slot after the record
    };
    std::vector<std::vector<Planned>> plan(npids + 1);
    uint64_t fresh = slots; // a checked store's target, written once
    bool probed = false;
    std::vector<size_t> next(npids + 1, 0);
    auto episode = [&](ProcId pid) {
        std::vector<Planned> &p = plan[pid];
        p.clear();
        next[pid] = 0;
        const uint64_t kind = below(10);
        if (kind < 2) {
            for (uint64_t i = 1 + below(6); i > 0; --i)
                p.push_back({});
            return;
        }
        // A load from the source, or from a slot an earlier run may
        // have tainted, then a run of stores.
        p.push_back({sim::MemKind::Load, kind < 6 ? pid : below(slots), -1});
        for (uint64_t i = below(3); kind >= 8 && i > 0; --i)
            p.push_back({});
        const bool long_run = below(4) == 0;
        const uint64_t run = long_run ? 1 + below(80) : 1 + below(6);
        uint64_t checked = below(40) == 0 ? below(run) : run;
        if (long_run && run > 1 && !probed) {
            // The first long run holds the splitting stores of most NT
            // values at wide windows: check one of them.
            checked = 1 + below(run - 1);
            probed = true;
        }
        for (uint64_t k = 0; k < run; ++k) {
            if (kind == 9 && below(4) == 0)
                p.push_back({});
            if (k == checked)
                p.push_back({sim::MemKind::Store, fresh,
                             static_cast<int>(fresh++)});
            else
                p.push_back({sim::MemKind::Store, 8 + below(slots - 8), -1});
        }
    };

    const size_t target = 600 + below(600);
    bool cleared = false;
    uint32_t sink_id = 100;
    while (t.records.size() < target) {
        const ProcId pid = 1 + static_cast<ProcId>(below(npids));
        for (uint64_t burst = 1 + below(8); burst > 0; --burst) {
            if (next[pid] == plan[pid].size())
                episode(pid);
            const Planned step = plan[pid][next[pid]++];
            sim::TraceRecord r;
            r.seq = t.records.size();
            r.pid = pid;
            r.local_seq = ++local[pid];
            r.pc = 0x8000 + 4 * (r.seq % 64);
            r.mem_kind = step.kind;
            r.op = step.kind == sim::MemKind::Load ? isa::Op::Ldr
                : step.kind == sim::MemKind::Store ? isa::Op::Str
                                                   : isa::Op::Nop;
            if (step.kind != sim::MemKind::None) {
                r.mem_start = slotAddr(step.slot);
                r.mem_end = r.mem_start + 7;
            }
            t.records.push_back(r);
            if (step.sink >= 0)
                control(sim::ControlKind::CheckSink, pid, step.sink,
                        sink_id++);
        }
        if (!cleared && t.records.size() >= target / 2) {
            control(sim::ControlKind::ClearAll, 0, 0, 0);
            sources();
            cleared = true;
        }
    }
    return t;
}

std::vector<analysis::LabelledTrace>
syntheticSet(uint64_t traces)
{
    std::vector<analysis::LabelledTrace> set;
    for (uint64_t seed = 1; seed <= traces; ++seed)
        set.push_back({"synthetic_" + std::to_string(seed), seed % 2 == 0,
                       syntheticTrace(seed)});
    return set;
}

} // namespace

TEST(GroupedSweep, RegistryMatchesPerCellWithUntainting)
{
    expectGroupedMatchesPerCell(registry(), 20, 10, true, {0});
}

TEST(GroupedSweep, RegistryMatchesPerCellWithoutUntainting)
{
    expectGroupedMatchesPerCell(registry(), 8, 4, false, {0});
}

TEST(GroupedSweep, SyntheticMatchesPerCellAtOneNt)
{
    auto set = syntheticSet(18);
    expectGroupedMatchesPerCell(set, 80, 1, true, {1, 4});
    expectGroupedMatchesPerCell(set, 80, 1, false, {1, 4});
}

TEST(GroupedSweep, SyntheticMatchesPerCellAtSeventyNt)
{
    auto set = syntheticSet(8);
    const int ni_hi = 80, nt_hi = 70;
    const std::vector<uint8_t> ref =
        expectGroupedMatchesPerCell(set, ni_hi, nt_hi, true, {1, 4});
    expectGroupedMatchesPerCell(set, ni_hi, nt_hi, false, {1, 4});

    // The set must split NT groups deep into the NT range, or the
    // differential would pass a sweep that never forks: some (trace,
    // NI) has to detect at one NT and not at the next, also past
    // NT 12, and some (trace, NT) at one NI and not at the next.
    const size_t apps = set.size();
    auto at = [&](int ni, int nt, size_t ai) {
        return ref[(static_cast<size_t>(nt - 1) * ni_hi + ni - 1) * apps + ai];
    };
    unsigned nt_splits = 0, high_nt_splits = 0, ni_splits = 0;
    for (size_t ai = 0; ai < apps; ++ai) {
        for (int ni = 1; ni <= ni_hi; ++ni)
            for (int nt = 2; nt <= nt_hi; ++nt)
                if (at(ni, nt, ai) != at(ni, nt - 1, ai)) {
                    ++nt_splits;
                    high_nt_splits += nt > 12;
                }
        for (int nt = 1; nt <= nt_hi; ++nt)
            for (int ni = 2; ni <= ni_hi; ++ni)
                ni_splits += at(ni, nt, ai) != at(ni - 1, nt, ai);
    }
    EXPECT_GT(nt_splits, 0u);
    EXPECT_GT(high_nt_splits, 0u);
    EXPECT_GT(ni_splits, 0u);
}
