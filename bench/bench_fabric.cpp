/**
 * @file
 * Shared-fabric contention benchmark.
 *
 * contended_pair tracks the node-level coupling of the NodeFabric arbiter
 * (docs/ARCHITECTURE.md): two independent 512 MB all-reduces on a 2-GPU
 * node, back-to-back vs concurrent.  Reports the fair-share stretch
 * (contended/solo latency) and verifies conservation of transferred
 * bytes (allocated bandwidth x time is payload-invariant).  Hard failure
 * if the contended pair is NOT slower — the coupling this bench exists to
 * track would be dead.
 *
 * Results go to BENCH_fabric.json via tools/bench_json.hpp; CI uploads
 * the file so the trajectory is tracked (docs/PERFORMANCE.md).
 *
 * Usage: bench_fabric [--smoke] [--out PATH]
 *   --smoke   accepted for CI symmetry with the other benches (the one
 *             scenario is already smoke-sized)
 *   --out     output JSON path (default BENCH_fabric.json)
 */

#include <algorithm>
#include <iostream>
#include <string>

#include "kernels/collective.hpp"
#include "sim/machine_config.hpp"
#include "sim/simulation.hpp"
#include "support/time_types.hpp"
#include "tools/bench_json.hpp"

namespace fk = fingrav::kernels;
namespace fs = fingrav::support;
namespace sim = fingrav::sim;
namespace tools = fingrav::tools;

namespace {

// ---------------------------------------------------------------------------
// contended_pair: two all-reduces on a 2-GPU node
// ---------------------------------------------------------------------------

bool
runContendedPair(tools::BenchReport& report)
{
    auto cfg = sim::mi300xConfig();
    cfg.node_gpus = 2;
    const fk::CollectiveKernel ar(fk::CollectiveOp::kAllReduce,
                                  512LL * 1000 * 1000, cfg);
    const auto work = ar.workAt(1.0);
    const double u = work.util.fabric_bw;
    const auto t0 = fs::SimTime::fromNanos(1000);
    const auto limit = t0 + fs::Duration::seconds(10.0);

    auto duration_ns = [](const sim::GpuDevice& dev) {
        const auto& e = dev.executionLog().back();
        return (e.end - e.start).nanos();
    };

    // Back-to-back.
    sim::Simulation solo(cfg, 7, 2);
    auto first = work;
    first.fabric_group = solo.fabric().allocGroup();
    solo.device(0).submit(first, t0);
    solo.advanceAllUntilIdle(limit);
    auto second = work;
    second.fabric_group = solo.fabric().allocGroup();
    solo.device(1).submit(second, solo.device(0).localNow());
    solo.advanceAllUntilIdle(limit);
    const double solo_us =
        static_cast<double>(duration_ns(solo.device(0))) * 1e-3;

    // Concurrent.
    sim::Simulation pair(cfg, 7, 2);
    auto x = work;
    x.fabric_group = pair.fabric().allocGroup();
    auto y = work;
    y.fabric_group = pair.fabric().allocGroup();
    pair.device(0).submit(x, t0);
    pair.device(1).submit(y, t0);
    pair.advanceAllUntilIdle(limit);
    const double cont_us =
        static_cast<double>(duration_ns(pair.device(0))) * 1e-3;

    const double stretch = cont_us / solo_us;
    // Conservation: share x time must match the uncontended transfer.
    const double bytes_ratio =
        (u / std::max(1.0, 2.0 * u) * cont_us) / (u * solo_us);
    const bool conserved =
        bytes_ratio > 0.92 && bytes_ratio < 1.08;
    const bool slower = stretch > 1.2;

    auto& s = report.scenario("contended_pair");
    s.metric("solo_us", solo_us);
    s.metric("contended_us", cont_us);
    s.metric("stretch", stretch);
    s.metric("fabric_demand_each", u);
    s.metric("bytes_ratio", bytes_ratio);
    s.note("bytes_conserved", conserved ? "yes" : "no");
    s.note("contention_live", slower ? "yes" : "no");

    std::cout << "contended_pair: solo " << solo_us << " us, contended "
              << cont_us << " us, stretch " << stretch
              << (conserved ? ", bytes conserved" : ", BYTES NOT CONSERVED")
              << "\n";
    return slower && conserved;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_fabric.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            // Accepted for CI symmetry; the scenario is already small.
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_fabric [--smoke] [--out PATH]\n";
            return 2;
        }
    }

    tools::BenchReport report("fabric");
    const bool ok = runContendedPair(report);

    if (!report.write(out_path)) {
        std::cerr << "bench_fabric: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    if (!ok) {
        std::cerr << "bench_fabric: FAILED (dead coupling)\n";
        return 1;
    }
    return 0;
}
