/**
 * @file
 * Static oracle vs dynamic PIFT: classify every registry app (the
 * DroidBench suite plus the malware analogs) without executing it,
 * under both oracle modes — explicit-only and implicit-flow — then
 * cross-check against the replay verdicts at the paper's operating
 * point (NI=13, NT=3), derive the per-app static policy table, and
 * compare the joined policy with the Figure 11 sweep optimum.
 *
 * Emits BENCH_static_oracle.json (per-mode confusion counts, per-app
 * verdict agreement, policy table, wall times;
 * schemas/bench_static_oracle.schema.json); the named checks at the
 * end of main() fail the bench (exit 1).
 *
 * Everything here is deterministic: no execution feeds the static
 * side, and the replays are exact — the dynamic verdicts and the
 * sweep-optimum search fan out over the exec pool (`--jobs N`) with
 * byte-identical output at every width.
 *
 * Usage: bench_static_oracle [--jobs N] [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <memory>

#include "bench/common.hh"
#include "bench/report.hh"

#include "analysis/crosscheck.hh"
#include "droidbench/static_oracle.hh"
#include "exec/thread_pool.hh"
#include "static/policy.hh"
#include "static/window.hh"

using namespace pift;

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void
printAccuracy(const char *label, const analysis::Accuracy &a)
{
    std::printf("  %-22s TP=%-3u FP=%-3u TN=%-3u FN=%-3u "
                "accuracy %.1f%%\n", label, a.tp, a.fp, a.tn, a.fn,
                100.0 * a.accuracy());
}

} // namespace

int
main(int argc, char **argv)
{
    argc = exec::stripJobsFlag(argc, argv);
    if (argc < 0) {
        std::fprintf(stderr, "usage: %s [--jobs N] [--out FILE]\n",
                     argv[0]);
        return 2;
    }
    std::string out_path = "BENCH_static_oracle.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs N] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    benchx::Phase phase("static taint oracle vs dynamic PIFT",
                   "Sections 3-5 (static cross-check)");

    // --- Static sweep: whole registry, both modes, no execution. ---
    auto t_static = std::chrono::steady_clock::now();
    auto verdicts =
        droidbench::staticSweep(droidbench::droidBenchApps());
    auto malware_verdicts =
        droidbench::staticSweep(droidbench::malwareApps());
    double static_ms = msSince(t_static);

    std::vector<droidbench::StaticVerdict> all = verdicts;
    all.insert(all.end(), malware_verdicts.begin(),
               malware_verdicts.end());

    std::printf("%-36s %-8s %-10s %-10s\n", "app", "truth",
                "explicit", "implicit");
    for (const auto &v : all)
        std::printf("%-36s %-8s %-10s %-10s%s\n", v.name.c_str(),
                    v.leaks_truth ? "leaks" : "benign",
                    v.static_leaks ? "leaks" : "benign",
                    v.implicit_leaks ? "leaks" : "benign",
                    v.leaks_truth == v.implicit_leaks
                        ? (v.leaks_truth == v.static_leaks
                               ? ""
                               : "  <-- implicit only")
                        : "  <-- miss");

    // --- Dynamic verdicts at the paper's operating point. ----------
    auto t_dynamic = std::chrono::steady_clock::now();
    const auto &set = benchx::suiteTraces();
    core::PiftParams params;
    params.ni = 13;
    params.nt = 3;

    // One replay task per app, reduced back in registry order.
    std::vector<analysis::VerdictPair> pairs(verdicts.size());
    exec::parallelFor(verdicts.size(), [&](size_t vi) {
        const auto &v = verdicts[vi];
        analysis::VerdictPair &p = pairs[vi];
        p.name = v.name;
        p.truth = v.leaks_truth;
        p.static_leaks = v.static_leaks;
        p.implicit_leaks = v.implicit_leaks;
        for (const auto &item : set)
            if (item.name == v.name)
                p.dynamic_leaks =
                    analysis::piftDetectsLeak(item.trace, params);
    });
    auto cc = analysis::crossCheck(pairs);
    double dynamic_ms = msSince(t_dynamic);

    std::printf("\nconfusion vs ground truth (DroidBench suite):\n");
    printAccuracy("explicit oracle:", cc.static_vs_truth);
    printAccuracy("implicit oracle:", cc.implicit_vs_truth);
    printAccuracy("dynamic (NI=13,NT=3):", cc.dynamic_vs_truth);

    std::printf("\nexplicit static vs dynamic agreement matrix:\n");
    std::printf("  both leaky %-3u  static only %-3u\n", cc.both_flag,
                cc.static_only);
    std::printf("  dynamic only %-3u  both benign %-3u\n",
                cc.dynamic_only, cc.both_clean);
    for (const auto &name : cc.disagreements)
        std::printf("  disagreement: %s\n", name.c_str());
    std::printf("  implicit vs dynamic disagreements: %zu\n",
                cc.implicit_disagreements.size());
    for (const auto &name : cc.implicit_disagreements)
        std::printf("  implicit disagreement: %s\n", name.c_str());

    // --- Per-app policy table and the joined device policy. --------
    auto t_policy = std::chrono::steady_clock::now();
    auto policies =
        droidbench::derivePolicies(droidbench::droidBenchApps());
    auto malware_policies =
        droidbench::derivePolicies(droidbench::malwareApps());
    policies.insert(policies.end(), malware_policies.begin(),
                    malware_policies.end());
    double policy_ms = msSince(t_policy);

    std::printf("\nper-app static policy (risky rows only; full "
                "table in the JSON report):\n");
    std::vector<static_analysis::StaticPolicy> risky;
    for (const auto &p : policies)
        if (p.implicit_risk)
            risky.push_back(p);
    std::printf("%s",
                static_analysis::formatPolicyTable(risky).c_str());

    // --- Window bounds derived from the handler templates. ---------
    auto derivation = static_analysis::deriveWindowBounds();
    std::printf("\nderived window bounds (handler-template walk):\n");
    std::printf("  max intra-handler load->store distance: %d\n",
                derivation.intra_max);
    std::printf("  branch tail %d + interposed handler %d + const "
                "prefix %d\n", derivation.branch_tail_max,
                derivation.min_interposed,
                derivation.max_const_prefix);
    std::printf("  derived (NI, NT) = (%d, %d)\n",
                derivation.derived_ni, derivation.derived_nt);

    // Figure 11 sweep optimum: smallest NI (then NT) at 100%.
    auto t_sweep = std::chrono::steady_clock::now();
    auto bound = analysis::windowBoundSearch(set);
    double sweep_ms = msSince(t_sweep);
    std::printf("  Figure 11 sweep optimum: (NI=%u, NT=%u)\n",
                bound.ni, bound.nt);
    std::printf("  delta: (%d, %d)\n",
                derivation.derived_ni - static_cast<int>(bound.ni),
                derivation.derived_nt - static_cast<int>(bound.nt));

    auto pc = analysis::policyCrossCheck(policies, bound);
    std::printf("  joined static policy: (NI=%d, NT=%d), %u risky "
                "app(s), %s the optimum\n", pc.joined.ni,
                pc.joined.nt, pc.risky_apps,
                pc.covers ? "covers" : "DOES NOT COVER");

    unsigned malware_explicit = 0;
    unsigned malware_implicit = 0;
    for (const auto &v : malware_verdicts) {
        malware_explicit += v.static_leaks ? 1 : 0;
        malware_implicit += v.implicit_leaks ? 1 : 0;
    }

    // --- JSON report.
    benchx::Report rep("bench_static_oracle");
    rep.field("apps", all.size(), "suite_apps", verdicts.size(),
              "malware_apps", malware_verdicts.size());
    for (auto [key, a] : {std::pair{"explicit", cc.static_vs_truth},
                          std::pair{"implicit", cc.implicit_vs_truth},
                          std::pair{"dynamic", cc.dynamic_vs_truth}})
        rep.object(key, [&] {
            rep.field("tp", a.tp, "fp", a.fp, "tn", a.tn, "fn", a.fn,
                      "accuracy_pct", 100.0 * a.accuracy());
        });
    rep.object("agreement", [&] {
        rep.field("both_flag", cc.both_flag,
                  "both_clean", cc.both_clean,
                  "static_only", cc.static_only,
                  "dynamic_only", cc.dynamic_only,
                  "implicit_dynamic_disagreements",
                  cc.implicit_disagreements.size());
    });
    rep.object("malware", [&] {
        rep.field("apps", malware_verdicts.size(),
                  "explicit_detected", malware_explicit,
                  "implicit_detected", malware_implicit);
    });
    rep.object("policy", [&] {
        rep.field("joined_ni", pc.joined.ni, "joined_nt", pc.joined.nt,
                  "risky_apps", pc.risky_apps,
                  "derived_ni", derivation.derived_ni,
                  "derived_nt", derivation.derived_nt,
                  "optimum_ni", bound.ni, "optimum_nt", bound.nt,
                  "covers_optimum", pc.covers);
    });
    // One row per app; the dynamic verdict exists for suite apps only.
    const size_t rows = std::min(all.size(), policies.size());
    unsigned risky_rows = 0;
    rep.array("per_app", rows, [&](size_t i) {
        const auto &v = all[i];
        const auto &p = policies[i];
        const bool keep =
            p.untaint_mode == static_analysis::UntaintMode::Keep;
        rep.field("name", v.name, "truth", v.leaks_truth,
                  "explicit", v.static_leaks,
                  "implicit", v.implicit_leaks);
        if (i < pairs.size())
            rep.field("dynamic", pairs[i].dynamic_leaks);
        rep.field("ni", p.ni, "nt", p.nt,
                  "implicit_risk", p.implicit_risk,
                  "untaint", keep ? "keep" : "scrub");
        rep.check("per_app[" + v.name + "]: implicit reports every "
                      "explicit leak",
                  !v.static_leaks || v.implicit_leaks);
        rep.check("per_app[" + v.name + "]: implicit risk => untaint "
                      "keep",
                  !p.implicit_risk || keep);
        risky_rows += p.implicit_risk ? 1 : 0;
    });
    rep.object("wall_ms", [&] {
        rep.field("static_sweep", static_ms, "dynamic_replay", dynamic_ms,
                  "policy", policy_ms, "sweep_optimum", sweep_ms);
    });

    rep.check("explicit.fp == 0", cc.static_vs_truth.fp == 0);
    rep.check("explicit.fn == 2 (the two implicit-flow apps)",
              cc.static_vs_truth.fn == 2);
    rep.check("implicit.fp == 0", cc.implicit_vs_truth.fp == 0);
    rep.check("implicit.fn == 0", cc.implicit_vs_truth.fn == 0);
    rep.check("per_app rows == apps", rows == all.size());
    rep.check("malware.implicit_detected == malware.apps",
              malware_implicit == malware_verdicts.size());
    rep.check("policy.covers_optimum", pc.covers);
    rep.check("policy: joined (ni, nt) >= optimum (ni, nt)",
              pc.joined.ni >= static_cast<int>(bound.ni) &&
                  pc.joined.nt >= static_cast<int>(bound.nt));
    rep.check("policy.risky_apps == per_app rows with implicit_risk",
              pc.risky_apps == risky_rows);
    std::printf("\n");
    return rep.finish(out_path);
}
