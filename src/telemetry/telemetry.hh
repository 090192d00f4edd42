/**
 * @file
 * Umbrella header for the telemetry subsystem (DESIGN.md §9).
 *
 * Instrument naming convention: `layer.component.event`, lower-case,
 * dot-separated, where `layer` matches the src/ subdirectory that
 * owns the call site (core, runtime, faults, android, droidbench,
 * support, ...). Counters end in a plural noun (`...inserts`), gauges
 * name a level (`...bytes`), histograms name the sampled quantity
 * (`...replay_us`).
 */

#ifndef PIFT_TELEMETRY_TELEMETRY_HH
#define PIFT_TELEMETRY_TELEMETRY_HH

#include "telemetry/export.hh"
#include "telemetry/registry.hh"
#include "telemetry/span.hh"

#endif // PIFT_TELEMETRY_TELEMETRY_HH
