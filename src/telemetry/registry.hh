/**
 * @file
 * The telemetry metrics registry (DESIGN.md §9).
 *
 * Named instruments — monotonic counters, gauges, and fixed-bucket
 * histograms — shared process-wide through a registry keyed by dotted
 * names (`layer.component.event`, e.g. `core.storage.inserts`). Call
 * sites resolve an instrument once (a mutex-guarded map lookup) and
 * then update it lock-free: every hot-path mutation is a single
 * relaxed atomic RMW.
 *
 * One off switch: building with `-DPIFT_TELEMETRY=OFF` removes the
 * subsystem entirely. This header then swaps in inline empty stubs
 * with the same API, so instrumented code compiles unchanged and the
 * optimizer deletes every call.
 *
 * Snapshots are deterministic: instruments are reported sorted by
 * name, and counter values under a fixed workload are exact (every
 * update is atomic, so concurrent workers lose none).
 */

#ifndef PIFT_TELEMETRY_REGISTRY_HH
#define PIFT_TELEMETRY_REGISTRY_HH

#include <cstdint>
#include <string>
#include <vector>

#if defined(PIFT_TELEMETRY_ENABLED)
#include <atomic>
#include <memory>
#endif

namespace pift::telemetry
{

/** Instrument kinds held by the registry. */
enum class Kind : uint8_t { Counter, Gauge, Histogram };

/** One histogram bucket in a snapshot: count of values <= le. */
struct BucketSnap
{
    uint64_t le = 0;    //!< inclusive upper bound (~0 = overflow)
    uint64_t count = 0; //!< observations in this bucket
};

/** Point-in-time view of one instrument. */
struct InstrumentSnap
{
    std::string name;
    Kind kind = Kind::Counter;
    uint64_t value = 0;      //!< counter total
    int64_t gauge_value = 0; //!< gauge current value
    int64_t gauge_peak = 0;  //!< gauge high-water mark
    uint64_t count = 0;      //!< histogram observation count
    uint64_t sum = 0;        //!< histogram sum of observations
    std::vector<BucketSnap> buckets;

    /**
     * Histogram quantiles interpolated from the fixed bucket bounds
     * (see histogramQuantile()); 0 for non-histograms and empty
     * histograms.
     */
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Sentinel `le` of the histogram overflow bucket. */
inline constexpr uint64_t bucket_overflow = ~uint64_t(0);

/**
 * Geometric bucket bounds: {first, first*factor, ...}, @p n bounds,
 * rounded up so bounds strictly increase. The implicit overflow
 * bucket catches everything larger.
 */
std::vector<uint64_t> exponentialBounds(uint64_t first, double factor,
                                        size_t n);

/**
 * Estimate quantile @p q (in [0,1]) from snapshot @p buckets holding
 * @p count observations total: find the bucket containing the target
 * rank and interpolate linearly between its bounds (the classic
 * fixed-bucket estimator — exact at bucket edges, linear inside).
 * Ranks landing in the overflow bucket clamp to the last finite
 * bound, since the bucket has no upper edge to interpolate toward.
 * Returns 0 when the histogram is empty. Pure snapshot arithmetic,
 * so it works identically in PIFT_TELEMETRY=OFF builds.
 */
double histogramQuantile(const std::vector<BucketSnap> &buckets,
                         uint64_t count, double q);

#if defined(PIFT_TELEMETRY_ENABLED)

/** True when the subsystem is compiled in (PIFT_TELEMETRY=ON). */
inline constexpr bool
compiledIn()
{
    return true;
}

/** Monotonic event counter. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        val.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const { return val.load(std::memory_order_relaxed); }

    void reset() { val.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> val{0};
};

/** Instantaneous level with a high-water mark. */
class Gauge
{
  public:
    void
    set(int64_t v)
    {
        val.store(v, std::memory_order_relaxed);
        raisePeak(v);
    }

    void
    add(int64_t d)
    {
        int64_t now = val.fetch_add(d, std::memory_order_relaxed) + d;
        raisePeak(now);
    }

    int64_t value() const { return val.load(std::memory_order_relaxed); }
    int64_t peak() const { return pk.load(std::memory_order_relaxed); }

    void
    reset()
    {
        val.store(0, std::memory_order_relaxed);
        pk.store(0, std::memory_order_relaxed);
    }

  private:
    void
    raisePeak(int64_t v)
    {
        int64_t cur = pk.load(std::memory_order_relaxed);
        while (v > cur &&
               !pk.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed)) {
        }
    }

    std::atomic<int64_t> val{0};
    std::atomic<int64_t> pk{0};
};

/**
 * Fixed-bucket histogram. Bucket i counts observations v with
 * bounds[i-1] < v <= bounds[i]; one extra overflow bucket catches
 * v > bounds.back(). Bounds are fixed at registration — the hot path
 * is a branchless-ish binary search plus three relaxed RMWs.
 */
class Histogram
{
  public:
    /** @param bounds strictly increasing inclusive upper bounds. */
    explicit Histogram(std::vector<uint64_t> bounds);

    void observe(uint64_t v);

    const std::vector<uint64_t> &bounds() const { return bnd; }

    /** Count in bucket @p i; i == bounds().size() is overflow. */
    uint64_t bucketCount(size_t i) const;

    uint64_t count() const { return cnt.load(std::memory_order_relaxed); }
    uint64_t sum() const { return total.load(std::memory_order_relaxed); }

    void reset();

  private:
    std::vector<uint64_t> bnd;
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
    std::atomic<uint64_t> cnt{0};
    std::atomic<uint64_t> total{0};
};

/**
 * Resolve (registering on first use) the counter named @p name.
 * The reference stays valid for the process lifetime; resolve once
 * and cache it at hot call sites. Asserts on kind collisions.
 */
Counter &counter(const std::string &name);

/** Resolve the gauge named @p name (see counter()). */
Gauge &gauge(const std::string &name);

/**
 * Resolve the histogram named @p name. @p bounds is used on first
 * registration only; later calls may pass {}.
 */
Histogram &histogram(const std::string &name,
                     std::vector<uint64_t> bounds = {});

/** Deterministic snapshot of every instrument, sorted by name. */
std::vector<InstrumentSnap> snapshot();

/** Zero every instrument (bench phases, test isolation). */
void resetAll();

#else // !PIFT_TELEMETRY_ENABLED — inline no-op stubs, same API.

inline constexpr bool
compiledIn()
{
    return false;
}

class Counter
{
  public:
    void inc(uint64_t = 1) {}
    uint64_t value() const { return 0; }
    void reset() {}
};

class Gauge
{
  public:
    void set(int64_t) {}
    void add(int64_t) {}
    int64_t value() const { return 0; }
    int64_t peak() const { return 0; }
    void reset() {}
};

class Histogram
{
  public:
    void observe(uint64_t) {}
    const std::vector<uint64_t> &
    bounds() const
    {
        static const std::vector<uint64_t> none;
        return none;
    }
    uint64_t bucketCount(size_t) const { return 0; }
    uint64_t count() const { return 0; }
    uint64_t sum() const { return 0; }
    void reset() {}
};

inline Counter &
counter(const std::string &)
{
    static Counter dummy;
    return dummy;
}

inline Gauge &
gauge(const std::string &)
{
    static Gauge dummy;
    return dummy;
}

inline Histogram &
histogram(const std::string &, std::vector<uint64_t> = {})
{
    static Histogram dummy;
    return dummy;
}

inline std::vector<InstrumentSnap>
snapshot()
{
    return {};
}

inline void resetAll() {}

#endif // PIFT_TELEMETRY_ENABLED

} // namespace pift::telemetry

#endif // PIFT_TELEMETRY_REGISTRY_HH
