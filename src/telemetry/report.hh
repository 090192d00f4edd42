/**
 * @file
 * The structured bench report (`BENCH_telemetry.json`).
 *
 * One JSON document per instrumented run: wall time, replay
 * throughput, the telemetry-on vs telemetry-off comparison when the
 * producer measured one, and the full registry snapshot. The shape is
 * frozen by schemas/bench_telemetry.schema.json (checked in CI by
 * tools/schema_check.py) so successive changes can diff
 * perf-trajectory numbers mechanically.
 */

#ifndef PIFT_TELEMETRY_REPORT_HH
#define PIFT_TELEMETRY_REPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "telemetry/registry.hh"

namespace pift::telemetry
{

/** Headline numbers of one instrumented run. */
struct BenchReport
{
    std::string bench;             //!< producing binary/subcommand
    uint64_t apps = 0;             //!< registry apps replayed
    uint64_t repetitions = 1;      //!< replay repetitions timed
    uint64_t records_replayed = 0; //!< total trace records consumed
    double wall_ms = 0.0;          //!< wall time, telemetry enabled
    double events_per_sec = 0.0;   //!< records_replayed / wall time
    /** Wall time with collection disabled; < 0 = not measured. */
    double wall_ms_disabled = -1.0;
    /** Enabled-vs-disabled overhead in percent; < 0 = not measured. */
    double overhead_pct = -1.0;
};

/**
 * Write @p report plus the current registry snapshot and tracer
 * fill state as the BENCH_telemetry.json document.
 */
void writeBenchReport(std::ostream &os, const BenchReport &report);

/**
 * Save the report to @p path.
 * @return empty string on success, else the error message
 */
std::string saveBenchReport(const std::string &path,
                            const BenchReport &report);

} // namespace pift::telemetry

#endif // PIFT_TELEMETRY_REPORT_HH
