#include "telemetry/span.hh"

#if defined(PIFT_TELEMETRY_ENABLED)

#include <atomic>
#include <chrono>
#include <mutex>

namespace pift::telemetry
{

namespace
{

/** Single guarded event buffer behind the Tracer facade. */
struct TracerState
{
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
    size_t cap = 1u << 20;
    uint64_t dropped = 0;
    std::vector<int> depth; //!< open spans, by thread id (0 unused)
    size_t open = 0;        //!< open spans across all threads
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    int &
    depthOf(uint32_t tid)
    {
        if (tid >= depth.size())
            depth.resize(tid + 1, 0);
        return depth[tid];
    }

    uint64_t
    nowUs() const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
};

TracerState &
state()
{
    static TracerState s;
    return s;
}

/** The calling thread's id once it has recorded an event, else 0. */
thread_local uint32_t t_tid = 0;

/** The calling thread's id, handed out at its first recorded event. */
uint32_t
recordingTid()
{
    static std::atomic<uint32_t> next{1};
    if (!t_tid)
        t_tid = next.fetch_add(1, std::memory_order_relaxed);
    return t_tid;
}

} // anonymous namespace

bool
Tracer::begin(const std::string &name, const char *cat)
{
    if (!detail::collecting())
        return false;
    const uint32_t tid = recordingTid();
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    // An End needs a slot too; keep one in reserve per open span so a
    // Begin we accept can always be closed.
    if (s.events.size() + s.open + 1 >= s.cap) {
        ++s.dropped;
        return false;
    }
    s.events.push_back(
        {TraceEvent::Phase::Begin, name, cat, s.nowUs(), 0.0, tid});
    ++s.depthOf(tid);
    ++s.open;
    return true;
}

void
Tracer::end()
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    int &depth = s.depthOf(t_tid);
    if (depth <= 0)
        return;
    --depth;
    --s.open;
    s.events.push_back(
        {TraceEvent::Phase::End, "", "", s.nowUs(), 0.0, t_tid});
}

void
Tracer::instant(const std::string &name, const char *cat)
{
    if (!detail::collecting())
        return;
    const uint32_t tid = recordingTid();
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.events.size() + s.open >= s.cap) {
        ++s.dropped;
        return;
    }
    s.events.push_back(
        {TraceEvent::Phase::Instant, name, cat, s.nowUs(), 0.0, tid});
}

void
Tracer::counterSample(const std::string &name, double value)
{
    if (!detail::collecting())
        return;
    const uint32_t tid = recordingTid();
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.events.size() + s.open >= s.cap) {
        ++s.dropped;
        return;
    }
    s.events.push_back({TraceEvent::Phase::Counter, name, "metric",
                        s.nowUs(), value, tid});
}

std::vector<TraceEvent>
Tracer::events() const
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.events;
}

uint64_t
Tracer::dropped() const
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.dropped;
}

int
Tracer::depth() const
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return t_tid < s.depth.size() ? s.depth[t_tid] : 0;
}

void
Tracer::clear()
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.events.clear();
    s.dropped = 0;
    s.depth.clear();
    s.open = 0;
    s.t0 = std::chrono::steady_clock::now();
}

void
Tracer::setCapacity(size_t cap)
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.cap = cap;
}

size_t
Tracer::capacity() const
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.cap;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

void
sampleRegistryToTracer()
{
    for (const InstrumentSnap &snap : snapshot()) {
        double v = 0.0;
        switch (snap.kind) {
          case Kind::Counter:
            v = static_cast<double>(snap.value);
            break;
          case Kind::Gauge:
            v = static_cast<double>(snap.gauge_value);
            break;
          case Kind::Histogram:
            v = static_cast<double>(snap.count);
            break;
        }
        tracer().counterSample(snap.name, v);
    }
}

} // namespace pift::telemetry

#endif // PIFT_TELEMETRY_ENABLED
