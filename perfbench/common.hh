/**
 * @file
 * Shared plumbing of the repository benchmark: options, the metric
 * report (human-readable lines plus the final JSON line), the span
 * log the traced run keeps in memory, and process-level probes
 * (clock, CPU time, resident set).
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Monotonic wall clock in nanoseconds (steady_clock). */
uint64_t nowNs();

/** User + system CPU seconds of the whole process (all threads). */
double cpuSeconds();

/** Peak resident set of the process, in MB (getrusage). */
double peakRssMb();

/**
 * Heap bytes the process has allocated and not freed, in kB, summed
 * over every malloc arena (mallinfo2): unlike the resident set, it
 * does not depend on which freed pages the allocator kept.
 */
double heapInUseKb();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank quantile @p q of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/** Probes per probe window (a group needs at least 1,000). */
inline constexpr size_t sample_window = 1024;

/**
 * Cut @p samples, in the order they were taken, into windows of
 * sample_window and append them to @p groups; a shorter tail joins
 * the last window, and fewer samples than a window make one group.
 */
void appendWindows(std::vector<std::vector<double>> &groups,
                   const std::vector<double> &samples);

/**
 * Quantile @p q of each group of samples (a probe window), then the
 * median over groups: a group of at least 1,000 samples keeps at least
 * ten beyond its p99, and the median over many short windows keeps
 * bursts of interference in some of them from moving the result.
 */
double groupedQuantile(const std::vector<std::vector<double>> &groups,
                       double q);

/**
 * Start a phase from empty telemetry: zero every instrument and drop
 * the span buffer the library's own telemetry::Span sites fill (one
 * per packing, batched replay and sweep; it holds up to 2^20 events,
 * so without this a pass's cost and memory would depend on how full
 * earlier passes left it).
 */
void resetTelemetry();

/** Every telemetry counter, by name (gauges and histograms skipped). */
std::map<std::string, uint64_t> telemetryCounters();

/** What one run was asked to do (see main.cc for the flags). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;         //!< smoke-test sizes
    bool plant_defect = false; //!< reference stores drop an insert
    unsigned jobs = 1;         //!< pool width, caller included
    std::string scratch;       //!< per-run temporary directory
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Name and unit of every metric a run mode prints, in print order. */
const std::vector<Metric> &endToEndMetrics();
const std::vector<Metric> &perLayerMetrics();

/**
 * The outcome of one run. Metrics are set by name from either table;
 * print() emits every metric of the run's mode (0 where a workload
 * does no work in that layer) and then the final JSON line.
 */
class Report
{
  public:
    explicit Report(bool traced);

    /** Set metric @p name (must be in one of the two tables). */
    void set(const std::string &name, double value);

    /** Operations issued and checked against the reference. */
    void attempt(uint64_t n) { attempted_ += n; }

    /** @p n operations failed or disagreed with the reference. */
    void failOps(uint64_t n, const std::string &what);

    /** A self-check that is not an operation failed. */
    void broken(const std::string &what);

    bool correct() const { return correct_; }

    /** Human-readable metric lines, then the JSON result line. */
    void print() const;

  private:
    bool traced_;
    std::vector<Metric> metrics_; //!< end-to-end table, then per-layer
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool correct_ = true;
};

/**
 * In-memory span log of the traced run. A span covers one call into
 * a layer's public API; parent links come from the stack of open
 * spans. Disabled logs record nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = "";
        uint64_t start_ns = 0;
        uint64_t end_ns = 0;
        int64_t parent = -1;
        uint32_t tenant = 0;
    };

    explicit SpanLog(std::string workload) : workload_(std::move(workload))
    {}

    bool enabled = false;

    int64_t begin(const char *name, uint32_t tenant);
    void end(int64_t id);

    /** Durations (ns) of every closed span named @p name. */
    std::vector<double> durations(const char *name) const;

    /** Sum of durations (ns) of spans named @p name. */
    double totalNs(const char *name) const;

    /** Write one JSON object per span; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::string workload_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

/** RAII span; a no-op when the log is disabled. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const char *name, uint32_t tenant = 0)
        : log_(log), id_(log.enabled ? log.begin(name, tenant) : -1)
    {}
    ~Scoped()
    {
        if (id_ >= 0)
            log_.end(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog &log_;
    int64_t id_;
};

/** Number of times each run repeats its set-up (setup_s is the median). */
inline constexpr int setup_reps = 9;

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
