#include "telemetry/export.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace pift::telemetry
{

namespace
{

const char *
kindTag(Kind kind)
{
    switch (kind) {
      case Kind::Counter:   return "counter";
      case Kind::Gauge:     return "gauge";
      case Kind::Histogram: return "histogram";
    }
    return "?";
}

/** Chrome "ph" letter for one event. */
char
phaseTag(TraceEvent::Phase ph)
{
    switch (ph) {
      case TraceEvent::Phase::Begin:   return 'B';
      case TraceEvent::Phase::End:     return 'E';
      case TraceEvent::Phase::Instant: return 'i';
      case TraceEvent::Phase::Counter: return 'C';
    }
    return '?';
}

void
writeEventObject(std::ostream &os, const TraceEvent &ev)
{
    // One process; each recording thread gets its own timeline row,
    // on which its B/E events nest.
    os << "{\"ph\":\"" << phaseTag(ev.ph) << "\"";
    switch (ev.ph) {
      case TraceEvent::Phase::Begin:
        os << ",\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
           << jsonEscape(ev.cat) << "\"";
        break;
      case TraceEvent::Phase::End:
        break;
      case TraceEvent::Phase::Instant:
        os << ",\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
           << jsonEscape(ev.cat) << "\",\"s\":\"t\"";
        break;
      case TraceEvent::Phase::Counter:
        os << ",\"name\":\"" << jsonEscape(ev.name)
           << "\",\"args\":{\"value\":" << ev.value << "}";
        break;
    }
    os << ",\"ts\":" << ev.ts_us << ",\"pid\":1,\"tid\":" << ev.tid
       << "}";
}

std::string
saveEvents(const std::string &path, bool chrome)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return "cannot open '" + path + "' for writing";
    auto events = tracer().events();
    if (chrome)
        writeChromeTrace(os, events);
    else
        writeJsonl(os, events);
    os.flush();
    if (!os)
        return "short write to '" + path + "'";
    return "";
}

} // anonymous namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceEvent> &events)
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent &ev : events) {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
        writeEventObject(os, ev);
    }
    os << "\n]}\n";
}

void
writeJsonl(std::ostream &os, const std::vector<TraceEvent> &events)
{
    for (const TraceEvent &ev : events) {
        writeEventObject(os, ev);
        os << "\n";
    }
}

void
writeMetricsJson(std::ostream &os,
                 const std::vector<InstrumentSnap> &snaps, int indent)
{
    std::string pad(static_cast<size_t>(indent), ' ');
    os << "[";
    bool first = true;
    for (const InstrumentSnap &snap : snaps) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << pad << "  {\"name\":\"" << jsonEscape(snap.name)
           << "\",\"kind\":\"" << kindTag(snap.kind) << "\"";
        switch (snap.kind) {
          case Kind::Counter:
            os << ",\"value\":" << snap.value;
            break;
          case Kind::Gauge:
            os << ",\"value\":" << snap.gauge_value
               << ",\"peak\":" << snap.gauge_peak;
            break;
          case Kind::Histogram:
            os << ",\"count\":" << snap.count << ",\"sum\":"
               << snap.sum << ",\"buckets\":[";
            for (size_t i = 0; i < snap.buckets.size(); ++i) {
                if (i)
                    os << ",";
                os << "{\"le\":";
                if (snap.buckets[i].le == bucket_overflow)
                    os << "\"+inf\"";
                else
                    os << snap.buckets[i].le;
                os << ",\"count\":" << snap.buckets[i].count << "}";
            }
            os << "],\"p50\":" << snap.p50 << ",\"p95\":" << snap.p95
               << ",\"p99\":" << snap.p99;
            break;
        }
        os << "}";
    }
    if (!first)
        os << "\n" << pad;
    os << "]";
}

std::string
saveChromeTrace(const std::string &path)
{
    return saveEvents(path, true);
}

std::string
saveJsonl(const std::string &path)
{
    return saveEvents(path, false);
}

} // namespace pift::telemetry
