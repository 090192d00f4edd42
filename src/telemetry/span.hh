/**
 * @file
 * The tracing layer: RAII spans over a process-wide event tracer.
 *
 * A Span brackets a unit of work (one tainting window, one app
 * replay, one bench phase) with Begin/End events; Chrome's
 * about:tracing reconstructs the nesting from stream order within
 * each thread, so span structure is deterministic even though
 * timestamps are wall-clock. Every event carries a small id of the
 * thread that recorded it (1 for the first thread that records), and
 * end() closes the innermost span open on its own thread, so the
 * spans of parallel pool tasks nest per thread.
 * The tracer also records Instant events (one-off markers) and
 * Counter samples (instrument name → value at a point in time), which
 * is how metrics snapshots become visible on the trace timeline.
 *
 * The event buffer is bounded: past the capacity, events are counted
 * as dropped instead of accumulating without limit. A Begin that is
 * dropped suppresses its matching End so exported traces stay
 * well-nested.
 *
 * With PIFT_TELEMETRY=OFF the whole layer collapses to empty inline
 * stubs (a Span is an empty object the optimizer deletes).
 */

#ifndef PIFT_TELEMETRY_SPAN_HH
#define PIFT_TELEMETRY_SPAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/registry.hh"

namespace pift::telemetry
{

/** One entry in the tracer's event stream. */
struct TraceEvent
{
    enum class Phase : uint8_t { Begin, End, Instant, Counter };

    Phase ph = Phase::Instant;
    std::string name;
    std::string cat;        //!< Chrome trace category
    uint64_t ts_us = 0;     //!< microseconds since tracer start
    double value = 0.0;     //!< Counter events: sampled value
    uint32_t tid = 1;       //!< recording thread, 1 = first to record
};

#if defined(PIFT_TELEMETRY_ENABLED)

/** Process-wide bounded collector of trace events. */
class Tracer
{
  public:
    /**
     * Append a Begin event. @return false when the event was dropped
     * (collection disabled or buffer full) — the caller must then
     * skip the matching end().
     */
    bool begin(const std::string &name, const char *cat);

    /** Append the End event for this thread's innermost begin(). */
    void end();

    /** Append a one-off marker event. */
    void instant(const std::string &name, const char *cat);

    /** Append a Counter sample (instrument value at this moment). */
    void counterSample(const std::string &name, double value);

    /** Copy of the event stream so far (in record order). */
    std::vector<TraceEvent> events() const;

    /** Events rejected because the buffer was full. */
    uint64_t dropped() const;

    /** Nesting depth of the spans open on the calling thread. */
    int depth() const;

    /** Drop all recorded events and reset the dropped counter. */
    void clear();

    /** Resize the buffer bound (existing events are kept). */
    void setCapacity(size_t cap);

    size_t capacity() const;
};

/** The process-wide tracer. */
Tracer &tracer();

/**
 * Snapshot every registry instrument into Counter events on the
 * tracer, making the current metric values part of the trace.
 */
void sampleRegistryToTracer();

/** RAII Begin/End pair on the process tracer. */
class Span
{
  public:
    explicit Span(const std::string &name, const char *cat = "pift")
        : armed(tracer().begin(name, cat))
    {
    }

    ~Span()
    {
        if (armed)
            tracer().end();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool armed;
};

#else // !PIFT_TELEMETRY_ENABLED

class Tracer
{
  public:
    bool begin(const std::string &, const char *) { return false; }
    void end() {}
    void instant(const std::string &, const char *) {}
    void counterSample(const std::string &, double) {}
    std::vector<TraceEvent> events() const { return {}; }
    uint64_t dropped() const { return 0; }
    int depth() const { return 0; }
    void clear() {}
    void setCapacity(size_t) {}
    size_t capacity() const { return 0; }
};

inline Tracer &
tracer()
{
    static Tracer dummy;
    return dummy;
}

inline void sampleRegistryToTracer() {}

class Span
{
  public:
    explicit Span(const std::string &, const char * = "pift") {}
    ~Span() {}
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
};

#endif // PIFT_TELEMETRY_ENABLED

} // namespace pift::telemetry

#endif // PIFT_TELEMETRY_SPAN_HH
