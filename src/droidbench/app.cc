#include "droidbench/app.hh"

#include <chrono>

#include "static/verifier.hh"
#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace pift::droidbench
{

namespace
{

/** App-replay instruments. */
struct ReplayTel
{
    telemetry::Counter &apps =
        telemetry::counter("droidbench.apps_replayed");
    telemetry::Counter &records =
        telemetry::counter("droidbench.trace_records");
    telemetry::Histogram &replay_us = telemetry::histogram(
        "droidbench.replay_us",
        telemetry::exponentialBounds(64, 4.0, 10));
};

ReplayTel &
rtel()
{
    static ReplayTel t;
    return t;
}

} // anonymous namespace

AppContext::AppContext()
    : cpu(memory, hub), heap(memory), env(hub, cpu, heap),
      vm(cpu, dex, heap)
{
    hub.addSink(&buffer);
    // Capture publishes per event. SoA batching (DESIGN.md §12) pays
    // only when the sink walks the batch arrays (a tracker replaying
    // a packed trace), not for raw capture into TraceBuffer, where
    // packing is an extra copy: a batched live capture measured
    // 0.87-0.95x.
#ifndef NDEBUG
    // Debug builds verify every method — library, framework and app —
    // at registration time; malformed bytecode dies at load, not at
    // some later pc.
    dex.setVerifyHook([](const dalvik::Method &m,
                         const dalvik::Dex &d) {
        auto result = static_analysis::verifyMethod(m, &d);
        for (const auto &diag : result.diagnostics)
            if (diag.severity == static_analysis::Severity::Error)
                pift_panic(
                    "load-time verifier rejected '%s': %s",
                    m.name.c_str(),
                    static_analysis::formatDiagnostic(diag).c_str());
    });
#endif
    lib.install(dex);
    env.install(dex, lib);
}

AppRun
runApp(const AppEntry &entry)
{
    telemetry::Span span("app:" + entry.name, "droidbench");
    auto t0 = std::chrono::steady_clock::now();

    AppContext ctx;
    dalvik::MethodId main = entry.declare(ctx);
    ctx.vm.boot();
    ctx.vm.execute(main);

    AppRun run;
    run.trace = ctx.buffer.takeTrace();
    run.sink_calls = ctx.env.sinkCalls();
    run.uncaught = ctx.vm.uncaughtException();
    run.instructions = ctx.cpu.retired();

    rtel().apps.inc();
    rtel().records.inc(run.trace.records.size());
    rtel().replay_us.observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    return run;
}

} // namespace pift::droidbench
