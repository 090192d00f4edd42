/**
 * @file
 * Telemetry subsystem tests: registry semantics (counter/gauge/
 * histogram), bucket boundary placement, snapshot determinism, span
 * nesting in the Chrome export, the JSONL writer, and the
 * warnings_suppressed_total bridge from support/logging.
 *
 * The file compiles and passes in both PIFT_TELEMETRY modes: with
 * OFF, every instrument is an inline stub that reads zero, and the
 * assertions that require real collection are compiled out or
 * branch on compiledIn().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

using namespace pift;
namespace tel = pift::telemetry;

namespace
{

/** Fresh registry + tracer for every test. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tel::setEnabled(true);
        tel::resetAll();
        tel::tracer().clear();
    }

    void
    TearDown() override
    {
        tel::setEnabled(true);
        tel::resetAll();
        tel::tracer().clear();
    }
};

/** Number of occurrences of @p needle in @p hay. */
size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

} // namespace

TEST_F(TelemetryTest, CounterAccumulatesAndResets)
{
    auto &c = tel::counter("test.counter.basic");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    if (tel::compiledIn())
        EXPECT_EQ(c.value(), 42u);
    else
        EXPECT_EQ(c.value(), 0u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, CounterIsSharedByName)
{
    tel::counter("test.counter.shared").inc(3);
    auto &again = tel::counter("test.counter.shared");
    if (tel::compiledIn())
        EXPECT_EQ(again.value(), 3u);
}

TEST_F(TelemetryTest, GaugeTracksValueAndPeak)
{
    auto &g = tel::gauge("test.gauge.basic");
    g.set(10);
    g.add(5);   // 15, new peak
    g.add(-12); // 3, peak stays 15
    if (tel::compiledIn()) {
        EXPECT_EQ(g.value(), 3);
        EXPECT_EQ(g.peak(), 15);
    } else {
        EXPECT_EQ(g.value(), 0);
        EXPECT_EQ(g.peak(), 0);
    }
}

TEST_F(TelemetryTest, RuntimeDisableGatesUpdates)
{
    auto &c = tel::counter("test.counter.gated");
    c.inc();
    tel::setEnabled(false);
    c.inc(100);
    tel::setEnabled(true);
    c.inc();
    if (tel::compiledIn())
        EXPECT_EQ(c.value(), 2u);
}

#if defined(PIFT_TELEMETRY_ENABLED)

TEST_F(TelemetryTest, HistogramBucketBoundariesAreInclusive)
{
    auto &h = tel::histogram("test.hist.bounds", {1, 2, 4});
    // Bucket semantics: bucket i counts v <= bounds[i] (and
    // > bounds[i-1]); one overflow bucket past the last bound.
    h.observe(0); // bucket 0
    h.observe(1); // bucket 0 (inclusive upper bound)
    h.observe(2); // bucket 1
    h.observe(3); // bucket 2
    h.observe(4); // bucket 2
    h.observe(5); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 1u); // overflow bucket
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 15u);
}

TEST_F(TelemetryTest, HistogramSnapshotMarksOverflow)
{
    auto &h = tel::histogram("test.hist.snap", {10});
    h.observe(7);
    h.observe(700);
    for (const auto &s : tel::snapshot()) {
        if (s.name != "test.hist.snap")
            continue;
        ASSERT_EQ(s.buckets.size(), 2u);
        EXPECT_EQ(s.buckets[0].le, 10u);
        EXPECT_EQ(s.buckets[0].count, 1u);
        EXPECT_EQ(s.buckets[1].le, tel::bucket_overflow);
        EXPECT_EQ(s.buckets[1].count, 1u);
        EXPECT_EQ(s.count, 2u);
        return;
    }
    FAIL() << "instrument missing from snapshot";
}

TEST_F(TelemetryTest, HistogramQuantileInterpolatesWithinBuckets)
{
    // Pure snapshot arithmetic — runs in both telemetry modes.
    std::vector<tel::BucketSnap> buckets = {
        {10, 10}, {20, 10}, {tel::bucket_overflow, 0}};
    // Rank q*20 inside [0,10]: interpolate from lower edge 0.
    EXPECT_DOUBLE_EQ(tel::histogramQuantile(buckets, 20, 0.25), 5.0);
    // Bucket edge is exact.
    EXPECT_DOUBLE_EQ(tel::histogramQuantile(buckets, 20, 0.5), 10.0);
    // Rank 15 of 20 is halfway through (10,20].
    EXPECT_DOUBLE_EQ(tel::histogramQuantile(buckets, 20, 0.75),
                     15.0);
    EXPECT_DOUBLE_EQ(tel::histogramQuantile(buckets, 20, 1.0), 20.0);
}

TEST_F(TelemetryTest, HistogramQuantileClampsOverflowAndEmpty)
{
    std::vector<tel::BucketSnap> buckets = {
        {10, 1}, {tel::bucket_overflow, 9}};
    // Ranks landing in the overflow bucket clamp to the last finite
    // bound: there is no upper edge to interpolate toward.
    EXPECT_DOUBLE_EQ(tel::histogramQuantile(buckets, 10, 0.99),
                     10.0);
    EXPECT_DOUBLE_EQ(tel::histogramQuantile({}, 0, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(tel::histogramQuantile(buckets, 0, 0.5), 0.0);
}

TEST_F(TelemetryTest, SnapshotCarriesQuantiles)
{
    if (!tel::compiledIn())
        GTEST_SKIP() << "PIFT_TELEMETRY=OFF";
    auto &h = tel::histogram("test.hist.quant", {10, 100});
    for (int i = 0; i < 10; ++i)
        h.observe(5);
    for (const auto &s : tel::snapshot()) {
        if (s.name != "test.hist.quant")
            continue;
        // Everything in (0,10]: quantiles interpolate inside it.
        EXPECT_DOUBLE_EQ(s.p50, 5.0);
        EXPECT_DOUBLE_EQ(s.p95, 9.5);
        EXPECT_DOUBLE_EQ(s.p99, 9.9);
        return;
    }
    FAIL() << "instrument missing from snapshot";
}

TEST_F(TelemetryTest, SnapshotIsSortedAndDeterministic)
{
    tel::counter("test.z.last").inc();
    tel::counter("test.a.first").inc(2);
    tel::gauge("test.m.middle").set(7);

    auto snaps = tel::snapshot();
    ASSERT_GE(snaps.size(), 3u);
    for (size_t i = 1; i < snaps.size(); ++i)
        EXPECT_LT(snaps[i - 1].name, snaps[i].name);

    // Two snapshots of an unchanged registry are identical.
    auto again = tel::snapshot();
    ASSERT_EQ(snaps.size(), again.size());
    for (size_t i = 0; i < snaps.size(); ++i) {
        EXPECT_EQ(snaps[i].name, again[i].name);
        EXPECT_EQ(snaps[i].value, again[i].value);
        EXPECT_EQ(snaps[i].gauge_value, again[i].gauge_value);
        EXPECT_EQ(snaps[i].count, again[i].count);
    }
}

TEST_F(TelemetryTest, ExponentialBoundsStrictlyIncrease)
{
    auto b = tel::exponentialBounds(1, 1.1, 12);
    ASSERT_EQ(b.size(), 12u);
    EXPECT_EQ(b.front(), 1u);
    for (size_t i = 1; i < b.size(); ++i)
        EXPECT_LT(b[i - 1], b[i]);
}

TEST_F(TelemetryTest, SpanNestingSurvivesChromeExport)
{
    {
        tel::Span outer("outer", "test");
        {
            tel::Span inner("inner", "test");
        }
        tel::tracer().instant("marker", "test");
    }
    auto events = tel::tracer().events();
    ASSERT_EQ(events.size(), 5u);
    using Ph = tel::TraceEvent::Phase;
    EXPECT_EQ(events[0].ph, Ph::Begin);
    EXPECT_EQ(events[0].name, "outer");
    EXPECT_EQ(events[1].ph, Ph::Begin);
    EXPECT_EQ(events[1].name, "inner");
    EXPECT_EQ(events[2].ph, Ph::End);
    EXPECT_EQ(events[3].ph, Ph::Instant);
    EXPECT_EQ(events[4].ph, Ph::End);
    EXPECT_EQ(tel::tracer().depth(), 0);

    std::ostringstream os;
    tel::writeChromeTrace(os, events);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // B...E pairs survive: two "ph":"B", two "ph":"E", one "ph":"i".
    EXPECT_EQ(countOf(json, "\"ph\":\"B\""), 2u);
    EXPECT_EQ(countOf(json, "\"ph\":\"E\""), 2u);
    EXPECT_EQ(countOf(json, "\"ph\":\"i\""), 1u);
    // Stream order preserved: outer begins before inner.
    EXPECT_LT(json.find("\"name\":\"outer\""),
              json.find("\"name\":\"inner\""));
    // The first thread that records is thread 1, so a trace recorded
    // on one thread exports as it did before events had a thread.
    for (const auto &ev : events)
        EXPECT_EQ(ev.tid, 1u);
    EXPECT_EQ(countOf(json, "\"pid\":1,\"tid\":1}"), 5u);
}

TEST_F(TelemetryTest, OverlappingSpansOfTwoThreadsNestPerThread)
{
    // Two threads hold spans open at the same time, so their Begin
    // and End events interleave in the one stream. Each End closes
    // its own thread's innermost span, and both exports carry the
    // thread's id, so the B/E events of every tid nest.
    tel::tracer().instant("main", "test");
    std::barrier sync(2);
    auto worker = [&](const std::string &name) {
        tel::Span outer(name + ".outer", "test");
        sync.arrive_and_wait(); // both outer spans open
        {
            tel::Span inner(name + ".inner", "test");
            sync.arrive_and_wait(); // both inner spans open
            EXPECT_EQ(tel::tracer().depth(), 2);
        }
        sync.arrive_and_wait(); // both inner spans closed
        EXPECT_EQ(tel::tracer().depth(), 1);
    };
    std::thread a(worker, "a"), b(worker, "b");
    a.join();
    b.join();
    EXPECT_EQ(tel::tracer().depth(), 0);

    auto events = tel::tracer().events();
    ASSERT_EQ(events.size(), 9u);
    EXPECT_EQ(events[0].tid, 1u);
    // Per tid: the names its Begin events open, as a stack.
    std::map<uint32_t, std::vector<std::string>> open;
    size_t max_open_threads = 0;
    for (const auto &ev : events) {
        if (ev.ph == tel::TraceEvent::Phase::Begin) {
            // A thread's first Begin opens its outer span.
            if (open[ev.tid].empty())
                EXPECT_NE(ev.name.find(".outer"), std::string::npos);
            else
                EXPECT_EQ(ev.name.substr(0, 1),
                          open[ev.tid].back().substr(0, 1));
            open[ev.tid].push_back(ev.name);
        } else if (ev.ph == tel::TraceEvent::Phase::End) {
            ASSERT_FALSE(open[ev.tid].empty()) << "tid " << ev.tid;
            open[ev.tid].pop_back();
        }
        size_t busy = 0;
        for (const auto &kv : open)
            busy += !kv.second.empty();
        max_open_threads = std::max(max_open_threads, busy);
    }
    EXPECT_EQ(max_open_threads, 2u) << "the spans did not overlap";
    ASSERT_EQ(open.size(), 2u);
    for (const auto &kv : open) {
        EXPECT_NE(kv.first, 1u);
        EXPECT_TRUE(kv.second.empty()) << "tid " << kv.first;
    }

    // Both exports write each event's own tid.
    std::ostringstream chrome, jsonl;
    tel::writeChromeTrace(chrome, events);
    tel::writeJsonl(jsonl, events);
    for (const auto &kv : open) {
        const std::string tag =
            "\"tid\":" + std::to_string(kv.first) + "}";
        EXPECT_EQ(countOf(chrome.str(), tag), 4u);
        EXPECT_EQ(countOf(jsonl.str(), tag), 4u);
    }
    EXPECT_EQ(countOf(jsonl.str(), "\"tid\":1}"), 1u);
}

TEST_F(TelemetryTest, TracerBoundsBufferAndCountsDrops)
{
    auto &tr = tel::tracer();
    size_t old_cap = tr.capacity();
    tr.setCapacity(4);
    for (int i = 0; i < 8; ++i)
        tr.instant("burst", "test");
    EXPECT_LE(tr.events().size(), 4u);
    EXPECT_GE(tr.dropped(), 4u);
    // A dropped Begin suppresses its End, keeping the stream nested.
    EXPECT_FALSE(tr.begin("late", "test"));
    EXPECT_EQ(tr.depth(), 0);
    tr.setCapacity(old_cap);
}

TEST_F(TelemetryTest, RegistrySampleAppearsAsCounterEvents)
{
    tel::counter("test.sampled.counter").inc(9);
    tel::sampleRegistryToTracer();
    bool found = false;
    for (const auto &ev : tel::tracer().events()) {
        if (ev.ph == tel::TraceEvent::Phase::Counter &&
            ev.name == "test.sampled.counter") {
            EXPECT_DOUBLE_EQ(ev.value, 9.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(TelemetryTest, JsonlEmitsOneObjectPerLine)
{
    tel::tracer().instant("one", "test");
    tel::tracer().counterSample("two", 2.5);
    std::ostringstream os;
    tel::writeJsonl(os, tel::tracer().events());
    std::string out = os.str();
    EXPECT_EQ(countOf(out, "\n"), 2u);
    EXPECT_NE(out.find("\"name\":\"one\""), std::string::npos);
    EXPECT_NE(out.find("\"value\":2.5"), std::string::npos);
}

TEST_F(TelemetryTest, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(tel::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(tel::jsonEscape("plain"), "plain");
}

TEST_F(TelemetryTest, SuppressedWarningsFlowIntoTelemetry)
{
    resetWarnRateLimits();
    auto &suppressed =
        tel::counter("support.warnings_suppressed_total");
    uint64_t before = suppressed.value();
    // Limit 0 => every call is suppressed (and silent), each one
    // feeding the telemetry counter through noteSuppressedWarn().
    for (int i = 0; i < 5; ++i)
        pift_warn_limited(0, "telemetry test warning %d", i);
    EXPECT_EQ(suppressed.value(), before + 5);
    resetWarnRateLimits();
}

#else // !PIFT_TELEMETRY_ENABLED

TEST_F(TelemetryTest, CompiledOutStubsAreInert)
{
    EXPECT_FALSE(tel::compiledIn());
    EXPECT_FALSE(tel::enabled());
    tel::counter("test.off.counter").inc(100);
    EXPECT_EQ(tel::counter("test.off.counter").value(), 0u);
    {
        tel::Span span("off", "test");
    }
    EXPECT_TRUE(tel::tracer().events().empty());
    EXPECT_TRUE(tel::snapshot().empty());

    // Exporters still produce loadable (empty) documents.
    std::ostringstream os;
    tel::writeChromeTrace(os, {});
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

#endif // PIFT_TELEMETRY_ENABLED
