/**
 * @file
 * Trace exporters, in the sim/trace_io mold: stream writers plus
 * file-path helpers that report failure instead of aborting. Two
 * formats:
 *
 *  - Chrome `about:tracing` JSON ({"traceEvents":[...]}): load it at
 *    chrome://tracing or https://ui.perfetto.dev. Spans become B/E
 *    duration events, metric samples become counter events.
 *  - JSONL: one event object per line, for grep/jq pipelines.
 *
 * Both writers are valid with an empty tracer, so a
 * PIFT_TELEMETRY=OFF build still produces loadable (empty) files.
 * The registry snapshot reaches BENCH_telemetry.json through the
 * bench-report writer (bench/report.hh), in `pift_cli telemetry`.
 */

#ifndef PIFT_TELEMETRY_EXPORT_HH
#define PIFT_TELEMETRY_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/span.hh"

namespace pift::telemetry
{

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Write @p events as a Chrome about:tracing JSON document. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceEvent> &events);

/** Write @p events as JSONL, one event object per line. */
void writeJsonl(std::ostream &os,
                const std::vector<TraceEvent> &events);

/**
 * Save the process tracer's stream as a Chrome trace file.
 * @return empty string on success, else the error message
 */
std::string saveChromeTrace(const std::string &path);

/** Save the process tracer's stream as JSONL (see saveChromeTrace). */
std::string saveJsonl(const std::string &path);

} // namespace pift::telemetry

#endif // PIFT_TELEMETRY_EXPORT_HH
