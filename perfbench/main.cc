/**
 * @file
 * The repository benchmark program: one workload per process.
 *
 *   perfbench --workload grid|fleet|solo [--seed N] [--seconds S]
 *             [--trace 0|1] [--size full|tiny] [--plant-defect]
 *             [--scratch DIR] [--spans FILE]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones (and writes the span log to --spans). The last line of stdout
 * is one JSON object; the exit code is non-zero when any output
 * disagreed with its reference. See README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "droidbench/app.hh"
#include "exec/thread_pool.hh"
#include "support/rng.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace pift;

Registry
captureRegistry(bool tiny)
{
    const uint64_t t0 = nowNs();
    Registry reg;
    auto capture = [&](const droidbench::AppEntry &entry) {
        droidbench::AppRun run = droidbench::runApp(entry);
        reg.records += run.trace.records.size();
        reg.apps.push_back({entry.name, entry.leaks, std::move(run.trace)});
    };
    const auto &suite = droidbench::droidBenchApps();
    for (size_t i = 0; i < suite.size() && (!tiny || i < 8); ++i)
        capture(suite[i]);
    if (!tiny)
        for (const auto &entry : droidbench::malwareApps())
            capture(entry);
    reg.capture_s = static_cast<double>(nowNs() - t0) * 1e-9;
    return reg;
}

std::vector<size_t>
seededOrder(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed ^ 0x5eed0f0e5eed0f0eull);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

} // namespace perfbench

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload grid|fleet|solo [--seed N] "
                 "[--seconds S] [--trace 0|1] [--size full|tiny] "
                 "[--plant-defect] [--scratch DIR] [--spans FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    opt.scratch = ".";
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--workload" && has)
            opt.workload = argv[++i];
        else if (a == "--seed" && has)
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has)
            opt.seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && has)
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        else if (a == "--size" && has)
            opt.tiny = std::strcmp(argv[++i], "tiny") == 0;
        else if (a == "--plant-defect")
            opt.plant_defect = true;
        else if (a == "--scratch" && has)
            opt.scratch = argv[++i];
        else if (a == "--spans" && has)
            spans_path = argv[++i];
        else
            return usage(argv[0]);
    }
    void (*run)(const Options &, Report &, SpanLog &) =
        opt.workload == "grid"    ? runGrid
        : opt.workload == "fleet" ? runFleet
        : opt.workload == "solo"  ? runSolo
                                  : nullptr;
    if (!run || !(opt.seconds > 0.0))
        return usage(argv[0]);

    // One process, and a pool no wider than the machine (caller
    // included).
    opt.jobs = pift::exec::hardwareJobs();
    opt.scratch += "/perfbench-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(opt.scratch, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s: %s\n", opt.scratch.c_str(),
                     ec.message().c_str());
        return 2;
    }

    Report rep(opt.trace);
    SpanLog spans(opt.workload);
    std::printf("workload %s seed %llu seconds %g trace %d jobs %u%s%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.jobs,
                opt.tiny ? " size tiny" : "",
                opt.plant_defect ? " plant-defect" : "");
    try {
        run(opt, rep, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        std::filesystem::remove_all(opt.scratch, ec);
        return 2;
    }
    std::filesystem::remove_all(opt.scratch, ec);
    rep.set("peak_rss_mb", peakRssMb());
    if (opt.trace && !spans_path.empty() && !spans.write(spans_path))
        rep.broken("cannot write the span log to " + spans_path);
    rep.print();
    return rep.correct() ? 0 : 1;
}
