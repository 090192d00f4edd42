#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <malloc.h>
#include <sys/resource.h>

#include "telemetry/registry.hh"
#include "telemetry/span.hh"

namespace perfbench
{

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: kB
}

double
heapInUseKb()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

void
appendWindows(std::vector<std::vector<double>> &groups,
              const std::vector<double> &samples)
{
    const size_t n = std::max<size_t>(1, samples.size() / sample_window);
    for (size_t w = 0; w < n; ++w) {
        auto first = samples.begin() + static_cast<ptrdiff_t>(w * sample_window);
        auto last = w + 1 == n ? samples.end() : first + sample_window;
        groups.emplace_back(first, last);
    }
}

double
groupedQuantile(const std::vector<std::vector<double>> &groups, double q)
{
    std::vector<double> per_group;
    for (const auto &g : groups)
        per_group.push_back(quantile(g, q));
    return median(per_group);
}

void
resetTelemetry()
{
    pift::telemetry::resetAll();
    pift::telemetry::tracer().clear();
}

std::map<std::string, uint64_t>
telemetryCounters()
{
    std::map<std::string, uint64_t> out;
    for (const auto &snap : pift::telemetry::snapshot())
        if (snap.kind == pift::telemetry::Kind::Counter)
            out[snap.name] = snap.value;
    return out;
}

const std::vector<Metric> &
endToEndMetrics()
{
    static const std::vector<Metric> table = {
        {"setup_s", "s"},
        {"events_per_s", "events/s"},
        {"sink_p50_us", "us"},
        {"sink_p99_us", "us"},
        {"peak_rss_mb", "MB"},
    };
    return table;
}

const std::vector<Metric> &
perLayerMetrics()
{
    static const std::vector<Metric> table = {
        {"droidbench.capture_s", "s"},
        {"droidbench.records", "count"},
        {"analysis.grid_s", "s"},
        {"analysis.replays", "count"},
        {"sim.pack_s", "s"},
        {"sim.batches", "count"},
        {"sim.replay_self_ns_per_event", "ns"},
        {"exec.tasks", "count"},
        {"exec.busy_share", "share"},
        {"core.tracker.self_ns_per_event", "ns"},
        {"core.tracker.events", "count"},
        {"core.tracker.windows_opened", "count"},
        {"core.tracker.windows_renewed", "count"},
        {"core.tracker.stores_tainted", "count"},
        {"core.tracker.stores_untainted", "count"},
        {"core.tracker.sink_checks", "count"},
        {"core.ideal_store.ns_per_op", "ns"},
        {"core.ideal_store.ops", "count"},
        {"core.storage.query_ns", "ns"},
        {"core.storage.insert_ns", "ns"},
        {"core.storage.remove_ns", "ns"},
        {"core.storage.lookups", "count"},
        {"core.storage.inserts", "count"},
        {"core.storage.removes", "count"},
        {"core.storage.probe_memo_hit_ratio", "ratio"},
        {"core.storage.evictions", "count"},
        {"core.storage.spill_hits", "count"},
        {"core.storage.peak_entries", "count"},
        {"service.submit_ns_per_event", "ns"},
        {"service.pump_ns_per_event", "ns"},
        {"service.self_ns_per_event", "ns"},
        {"service.maintain_us", "us"},
        {"service.accepted", "count"},
        {"service.refused", "count"},
        {"service.sessions", "count"},
        {"service.shard_skew", "ratio"},
        {"service.rss_per_session_kb", "kB"},
        {"persist.append_ns", "ns"},
        {"persist.journal_records", "count"},
        {"persist.wal_bytes", "B"},
        {"persist.snapshots", "count"},
        {"persist.snapshot_ms", "ms"},
        {"provenance.records", "count"},
        {"provenance.ring_evictions", "count"},
        {"provenance.ns_per_event", "ns"},
        {"trace.overhead_ratio", "ratio"},
    };
    return table;
}

Report::Report(bool traced) : traced_(traced)
{
    metrics_ = endToEndMetrics();
    metrics_.insert(metrics_.end(), perLayerMetrics().begin(),
                    perLayerMetrics().end());
}

void
Report::set(const std::string &name, double value)
{
    for (Metric &m : metrics_)
        if (m.name == name) {
            m.value = std::isfinite(value) ? value : 0.0;
            return;
        }
    broken("metric '" + name + "' is not in the metric tables");
}

void
Report::failOps(uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    failed_ += n;
    correct_ = false;
    std::printf("FAIL %llu: %s\n", static_cast<unsigned long long>(n),
                what.c_str());
}

void
Report::broken(const std::string &what)
{
    correct_ = false;
    std::printf("FAIL: %s\n", what.c_str());
}

void
Report::print() const
{
    std::printf("ops %llu\nfailed_ops %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    // The untraced run reports the end-to-end table, the traced run
    // the per-layer one.
    const size_t first = traced_ ? endToEndMetrics().size() : 0;
    const size_t last = traced_ ? metrics_.size() : endToEndMetrics().size();
    for (size_t i = first; i < last; ++i)
        std::printf("metric %s %.17g %s\n", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = first; i < last; ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i > first ? ", " : "", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

int64_t
SpanLog::begin(const char *name, uint32_t tenant)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.tenant = tenant;
    int64_t id = static_cast<int64_t>(spans_.size());
    open_.push_back(id);
    s.start_ns = nowNs();
    spans_.push_back(s);
    return id;
}

void
SpanLog::end(int64_t id)
{
    spans_[static_cast<size_t>(id)].end_ns = nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
SpanLog::durations(const char *name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.end_ns && std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
}

double
SpanLog::totalNs(const char *name) const
{
    double total = 0.0;
    for (double d : durations(name))
        total += d;
    return total;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : spans_)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": "
                     "%llu, \"parent\": %lld, \"workload\": \"%s\", "
                     "\"tenant\": %u}\n",
                     s.name, static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<long long>(s.parent), workload_.c_str(),
                     s.tenant);
    bool ok = std::fflush(f) == 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
