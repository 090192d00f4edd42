/**
 * @file
 * Tests for the exec thread pool: task coverage, deterministic
 * result ordering, exception capture, nested-call safety, the
 * --jobs/PIFT_JOBS override plumbing, and a concurrent sweep over
 * real tracker state. The concurrent cases are the ThreadSanitizer
 * targets for the whole parallel sweep engine: they drive
 * PiftTracker/IdealRangeStore replays and the telemetry registry from
 * many pool workers at once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/evaluate.hh"
#include "droidbench/app.hh"
#include "exec/thread_pool.hh"

using namespace pift;

namespace
{

/** A small labelled suite: enough apps to keep 4+ workers busy. */
const std::vector<analysis::LabelledTrace> &
smallSuite()
{
    static std::vector<analysis::LabelledTrace> set = [] {
        std::vector<analysis::LabelledTrace> s;
        const auto &apps = droidbench::droidBenchApps();
        for (size_t i = 0; i < apps.size() && s.size() < 10; ++i) {
            auto run = droidbench::runApp(apps[i]);
            s.push_back({apps[i].name, apps[i].leaks,
                         std::move(run.trace)});
        }
        return s;
    }();
    return set;
}

} // namespace

TEST(ThreadPool, ForEachCoversEveryIndexOnce)
{
    exec::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h.store(0);
    pool.forEach(hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    exec::ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<size_t> order;
    pool.forEach(8, [&](size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i); // inline = strictly sequential
}

TEST(ThreadPool, MaxJobsCapsParticipants)
{
    exec::ThreadPool pool(8);
    std::atomic<int> peak{0};
    std::atomic<int> active{0};
    pool.forEach(
        64,
        [&](size_t) {
            int now = ++active;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now))
                ;
            --active;
        },
        2);
    EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, ParallelMapPreservesOrder)
{
    std::vector<int> items(100);
    for (int i = 0; i < 100; ++i)
        items[i] = i;
    auto squares = exec::parallelMap(
        items, [](const int &v) { return v * v; }, 4);
    ASSERT_EQ(squares.size(), items.size());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(squares[i], i * i);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    exec::ThreadPool pool(4);
    std::atomic<size_t> ran{0};
    try {
        pool.forEach(1000, [&](size_t i) {
            if (i == 17)
                throw std::runtime_error("task 17 failed");
            ++ran;
        });
        FAIL() << "expected the task exception to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 17 failed");
    }
    // Cancellation: the failure stopped the grid well short of 1000.
    EXPECT_LT(ran.load(), 1000u);
}

TEST(ThreadPool, PoolIsReusableAfterException)
{
    exec::ThreadPool pool(4);
    EXPECT_THROW(pool.forEach(
                     8, [](size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    std::atomic<int> count{0};
    pool.forEach(32, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    std::atomic<int> inner_total{0};
    exec::parallelFor(
        8,
        [&](size_t) {
            // A task that fans out again must not block on its own
            // pool; the nested call degrades to inline execution.
            exec::parallelFor(
                16, [&](size_t) { ++inner_total; }, 4);
        },
        4);
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(JobsOverride, StripJobsFlagConsumesBothSpellings)
{
    exec::setDefaultJobs(0);
    char a0[] = "prog", a1[] = "--jobs", a2[] = "3", a3[] = "keep";
    char *argv1[] = {a0, a1, a2, a3};
    int argc1 = exec::stripJobsFlag(4, argv1);
    EXPECT_EQ(argc1, 2);
    EXPECT_STREQ(argv1[1], "keep");
    EXPECT_EQ(exec::defaultJobs(), 3u);

    char b0[] = "prog", b1[] = "--jobs=7";
    char *argv2[] = {b0, b1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv2), 1);
    EXPECT_EQ(exec::defaultJobs(), 7u);
    exec::setDefaultJobs(0);
}

TEST(JobsOverride, StripJobsFlagRejectsMalformedValues)
{
    exec::setDefaultJobs(0);
    char a0[] = "prog", a1[] = "--jobs", a2[] = "zero";
    char *argv1[] = {a0, a1, a2};
    EXPECT_EQ(exec::stripJobsFlag(3, argv1), -1);

    char b0[] = "prog", b1[] = "--jobs=0";
    char *argv2[] = {b0, b1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv2), -1);

    char c0[] = "prog", c1[] = "--jobs";
    char *argv3[] = {c0, c1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv3), -1);
    exec::setDefaultJobs(0);
}

namespace
{

/** Move-only-ish result type with no default constructor. */
struct NoDefault
{
    explicit NoDefault(int v) : value(v) { ++constructions; }
    NoDefault(const NoDefault &o) : value(o.value) {}
    NoDefault(NoDefault &&o) noexcept : value(o.value) {}
    NoDefault &operator=(const NoDefault &) = default;
    NoDefault &operator=(NoDefault &&) noexcept = default;

    int value;
    static std::atomic<int> constructions; //!< value ctors only
};

std::atomic<int> NoDefault::constructions{0};

} // namespace

TEST(ThreadPool, ParallelMapNonDefaultConstructibleResult)
{
    // Regression: slot storage used to be a value-initialized raw
    // R[], which required a default constructor and built every slot
    // twice. Now only fn's results are constructed.
    std::vector<int> items(64);
    for (int i = 0; i < 64; ++i)
        items[i] = i;
    NoDefault::constructions.store(0);
    auto out = exec::parallelMap(
        items, [](const int &v) { return NoDefault(v * 3); }, 4);
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i].value, i * 3);
    // Exactly one value construction per item — no default-slot
    // construction, no rebuild on assignment.
    EXPECT_EQ(NoDefault::constructions.load(), 64);
}

TEST(JobsOverride, StripJobsFlagRejectsOutOfRangeValues)
{
    exec::setDefaultJobs(0);
    // 2^32 used to narrow to 0 through the unsigned cast — which
    // *cleared* the override instead of failing.
    char a0[] = "prog", a1[] = "--jobs=4294967296";
    char *argv1[] = {a0, a1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv1), -1);

    // Past even long long: strtoll saturates with ERANGE.
    char b0[] = "prog", b1[] = "--jobs=99999999999999999999999";
    char *argv2[] = {b0, b1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv2), -1);

    char c0[] = "prog", c1[] = "--jobs=-4";
    char *argv3[] = {c0, c1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv3), -1);

    // The largest value that round-trips through unsigned is fine.
    char d0[] = "prog", d1[] = "--jobs=4294967295";
    char *argv4[] = {d0, d1};
    EXPECT_EQ(exec::stripJobsFlag(2, argv4), 1);
    EXPECT_EQ(exec::defaultJobs(), 4294967295u);
    exec::setDefaultJobs(0);
}

TEST(JobsOverride, WiderLateOverrideRebuildsGlobalPool)
{
    // Regression: a --jobs override applied after the shared pool's
    // first use was silently capped at the original width forever
    // (forEach clamps to nthreads).
    exec::setDefaultJobs(2);
    exec::ThreadPool &old_pool = exec::globalPool();
    unsigned before = old_pool.threads();
    ASSERT_GE(before, 2u);

    unsigned want = before + 3;
    exec::setDefaultJobs(want);
    EXPECT_EQ(exec::globalPool().threads(), want);

    // The widened parallelism is real: want tasks can all be in
    // flight simultaneously (each blocks until every one arrived,
    // which is only possible with want-way parallelism).
    std::mutex m;
    std::condition_variable cv;
    unsigned arrived = 0;
    bool all_concurrent = true;
    exec::parallelFor(want, [&](size_t) {
        std::unique_lock<std::mutex> lock(m);
        ++arrived;
        cv.notify_all();
        if (!cv.wait_for(lock, std::chrono::seconds(30),
                         [&] { return arrived >= want; }))
            all_concurrent = false;
    });
    EXPECT_TRUE(all_concurrent);

    // References handed out before the rebuild stay usable: the
    // retired pool is parked, not destroyed.
    std::atomic<int> count{0};
    old_pool.forEach(16, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 16);
    exec::setDefaultJobs(0);
}

TEST(ConcurrentSweep, AccuracyGridMatchesSerialAtEveryWidth)
{
    // Many workers running grouped (app, NI) replays concurrently,
    // each forking trackers over its own IdealRangeStores and all
    // bumping the telemetry counters, reduced to a grid that must not
    // depend on scheduling. test_grouped_sweep runs the same engine
    // at width 4 against per-cell replay.
    const auto &set = smallSuite();
    auto serial = analysis::accuracyGrid(set, 6, 4, true, 1);
    for (unsigned jobs : {2u, 4u, 8u}) {
        auto parallel = analysis::accuracyGrid(set, 6, 4, true, jobs);
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].tp, serial[i].tp) << "cell " << i;
            EXPECT_EQ(parallel[i].fp, serial[i].fp) << "cell " << i;
            EXPECT_EQ(parallel[i].tn, serial[i].tn) << "cell " << i;
            EXPECT_EQ(parallel[i].fn, serial[i].fn) << "cell " << i;
        }
    }
}

TEST(ConcurrentSweep, MinimalNiMatchesSerial)
{
    const auto &set = smallSuite();
    for (const auto &item : set) {
        if (!item.leaks)
            continue;
        unsigned serial = analysis::minimalNi(item.trace, 3, 20, 1);
        unsigned parallel = analysis::minimalNi(item.trace, 3, 20, 4);
        EXPECT_EQ(parallel, serial) << item.name;
    }
}

TEST(ConcurrentSweep, WindowBoundSearchMatchesSerial)
{
    const auto &set = smallSuite();
    auto serial = analysis::windowBoundSearch(set, 8, 4, 1);
    auto parallel = analysis::windowBoundSearch(set, 8, 4, 4);
    EXPECT_EQ(parallel.ni, serial.ni);
    EXPECT_EQ(parallel.nt, serial.nt);
}
