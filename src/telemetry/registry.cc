#include "telemetry/registry.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pift::telemetry
{

std::vector<uint64_t>
exponentialBounds(uint64_t first, double factor, size_t n)
{
    assert(first > 0 && factor > 1.0);
    std::vector<uint64_t> bounds;
    bounds.reserve(n);
    double b = static_cast<double>(first);
    for (size_t i = 0; i < n; ++i) {
        uint64_t bound = static_cast<uint64_t>(std::llround(b));
        if (!bounds.empty() && bound <= bounds.back())
            bound = bounds.back() + 1;
        bounds.push_back(bound);
        b *= factor;
    }
    return bounds;
}

double
histogramQuantile(const std::vector<BucketSnap> &buckets,
                  uint64_t count, double q)
{
    if (count == 0 || buckets.empty())
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    const double rank = q * static_cast<double>(count);
    uint64_t cum = 0;
    uint64_t lo = 0; // lower edge of the current bucket
    for (const BucketSnap &b : buckets) {
        const uint64_t prev = cum;
        cum += b.count;
        if (static_cast<double>(cum) < rank) {
            if (b.le != bucket_overflow)
                lo = b.le;
            continue;
        }
        if (b.le == bucket_overflow) {
            // No upper edge to interpolate toward: clamp to the last
            // finite bound (== this bucket's lower edge).
            return static_cast<double>(lo);
        }
        if (b.count == 0)
            return static_cast<double>(b.le);
        const double frac =
            (rank - static_cast<double>(prev)) /
            static_cast<double>(b.count);
        return static_cast<double>(lo) +
            frac * static_cast<double>(b.le - lo);
    }
    return static_cast<double>(lo);
}

} // namespace pift::telemetry

#if defined(PIFT_TELEMETRY_ENABLED)

#include <map>
#include <mutex>

namespace pift::telemetry
{

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bnd(std::move(bounds)),
      buckets(new std::atomic<uint64_t>[bnd.size() + 1])
{
    assert(std::is_sorted(bnd.begin(), bnd.end()) &&
           std::adjacent_find(bnd.begin(), bnd.end()) == bnd.end());
    for (size_t i = 0; i <= bnd.size(); ++i)
        buckets[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(uint64_t v)
{
    // First bound >= v; past-the-end selects the overflow bucket.
    size_t idx = static_cast<size_t>(
        std::lower_bound(bnd.begin(), bnd.end(), v) - bnd.begin());
    buckets[idx].fetch_add(1, std::memory_order_relaxed);
    cnt.fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(v, std::memory_order_relaxed);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    assert(i <= bnd.size());
    return buckets[i].load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (size_t i = 0; i <= bnd.size(); ++i)
        buckets[i].store(0, std::memory_order_relaxed);
    cnt.store(0, std::memory_order_relaxed);
    total.store(0, std::memory_order_relaxed);
}

namespace
{

/** One registered instrument; exactly one pointer is non-null. */
struct Slot
{
    Kind kind = Kind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

// std::map keeps snapshots name-sorted for free, which is what makes
// them byte-deterministic across runs.
using SlotMap = std::map<std::string, Slot>;

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

SlotMap &
slots()
{
    static SlotMap map;
    return map;
}

} // anonymous namespace

Counter &
counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    Slot &slot = slots()[name];
    if (!slot.counter) {
        assert(!slot.gauge && !slot.histogram &&
               "instrument kind collision");
        slot.kind = Kind::Counter;
        slot.counter = std::make_unique<Counter>();
    }
    return *slot.counter;
}

Gauge &
gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    Slot &slot = slots()[name];
    if (!slot.gauge) {
        assert(!slot.counter && !slot.histogram &&
               "instrument kind collision");
        slot.kind = Kind::Gauge;
        slot.gauge = std::make_unique<Gauge>();
    }
    return *slot.gauge;
}

Histogram &
histogram(const std::string &name, std::vector<uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    Slot &slot = slots()[name];
    if (!slot.histogram) {
        assert(!slot.counter && !slot.gauge &&
               "instrument kind collision");
        slot.kind = Kind::Histogram;
        slot.histogram =
            std::make_unique<Histogram>(std::move(bounds));
    }
    return *slot.histogram;
}

std::vector<InstrumentSnap>
snapshot()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<InstrumentSnap> out;
    out.reserve(slots().size());
    for (const auto &[name, slot] : slots()) {
        InstrumentSnap snap;
        snap.name = name;
        snap.kind = slot.kind;
        switch (slot.kind) {
          case Kind::Counter:
            snap.value = slot.counter->value();
            break;
          case Kind::Gauge:
            snap.gauge_value = slot.gauge->value();
            snap.gauge_peak = slot.gauge->peak();
            break;
          case Kind::Histogram: {
            const Histogram &h = *slot.histogram;
            snap.count = h.count();
            snap.sum = h.sum();
            snap.buckets.reserve(h.bounds().size() + 1);
            for (size_t i = 0; i < h.bounds().size(); ++i)
                snap.buckets.push_back(
                    {h.bounds()[i], h.bucketCount(i)});
            snap.buckets.push_back(
                {bucket_overflow, h.bucketCount(h.bounds().size())});
            snap.p50 = histogramQuantile(snap.buckets, snap.count,
                                         0.50);
            snap.p95 = histogramQuantile(snap.buckets, snap.count,
                                         0.95);
            snap.p99 = histogramQuantile(snap.buckets, snap.count,
                                         0.99);
            break;
          }
        }
        out.push_back(std::move(snap));
    }
    return out;
}

void
resetAll()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    for (auto &[name, slot] : slots()) {
        (void)name;
        if (slot.counter)
            slot.counter->reset();
        if (slot.gauge)
            slot.gauge->reset();
        if (slot.histogram)
            slot.histogram->reset();
    }
}

} // namespace pift::telemetry

#endif // PIFT_TELEMETRY_ENABLED
