/**
 * @file
 * Persistent-fleet benchmark: cost-scheduled pull dispatch vs static
 * round-robin partitioning, with bit-identity verification throughout.
 *
 * Three scenarios track the multi-process leg of the scaling story
 * (after event-driven stepping, parallel node stepping and campaign
 * threading):
 *
 *  1. skewed_makespan — a campaign set with one long scenario buried
 *     among short ones, self-tuned so the heavy spec's wall clock is
 *     comparable to the whole light tail.  A static 2-way round-robin
 *     partition straggles: whichever half draws the heavy spec also
 *     drags half the lights behind it.  Cost-scheduled pull dispatch
 *     (FleetBackend, 2 workers) starts the heavy spec first and streams
 *     the lights through the other worker, so the makespan collapses
 *     toward max(heavy, lights).  Any bitwise divergence from the
 *     serial reference is a hard failure.  Two floors gate the >= 1.3x
 *     claim, both against the round-robin partition's bottleneck
 *     replayed from measured per-spec costs (a lower bound on any real
 *     round-robin run: no spawn, wire or codec cost): the fleet's
 *     replayed schedule (makespan_speedup, any host) and the fleet's
 *     wall clock on a fresh fleet, spawns and wire included, as the
 *     median over seven repetitions (wall_makespan_ratio).  The wall
 *     floor is gated on a parallel-capacity probe, the same campaign
 *     run by two processes side by side (parallel_capacity >= 1.75 of 2
 *     CPUs); a host below that cannot show the gain, and the bench says
 *     so loudly instead of gating.
 *
 *  2. spawn_amortization — five back-to-back dispatches through ONE
 *     FleetBackend vs the placement-matched in-process reference.  The
 *     first dispatch pays worker spawns; later dispatches reuse the
 *     residents (workers_spawned must be 0 — enforced), so per-dispatch
 *     overhead must drop >= 2x by the fifth dispatch.  Every wall
 *     figure is the median over seven fresh fleets, reported with its
 *     minimum and MAD.
 *
 *  3. degraded_fleet — the supervision gate on the fleet: a scripted
 *     worker kill mid-dispatch must be recovered by a replacement
 *     worker in the same seat, bit-identically, with a non-empty
 *     degradation journal (a silent recovery is a failure).
 *
 * Results go to BENCH_fleet.json via tools/bench_json.hpp; CI feeds the
 * file through tools/bench_regression.py (docs/PERFORMANCE.md).
 *
 * Usage: bench_fleet [--smoke] [--out PATH] [--cli PATH]
 *   --smoke   reduced budgets (CI)
 *   --out     output JSON path (default BENCH_fleet.json)
 *   --cli     fingrav_cli binary (default: next to this executable)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fingrav/campaign_runner.hpp"
#include "fingrav/execution_backend.hpp"
#include "fingrav/worker_fleet.hpp"
#include "support/fault_injector.hpp"
#include "support/statistics.hpp"
#include "tests/test_fixtures.hpp"
#include "tools/bench_json.hpp"

namespace fc = fingrav::core;
namespace fsup = fingrav::support;
namespace tools = fingrav::tools;

namespace {

using fingrav::testing::identicalSets;

std::string g_cli_path;

double
wallMs(const std::chrono::steady_clock::time_point& t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

fc::ScenarioSpec
makeSpec(const char* label, std::size_t runs, std::uint64_t seed)
{
    fc::ScenarioSpec spec;
    spec.label = label;
    spec.seed = seed;
    spec.opts.runs_override = runs;
    spec.opts.collect_extra_runs = false;
    return spec;
}

fc::FleetOptions
fleetOptions(std::size_t workers)
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = {g_cli_path, "--serve"};
    return opts;
}

/** Minimum, median and median absolute deviation of repeated samples. */
struct Spread {
    double min = 0.0;
    double median = 0.0;
    double mad = 0.0;
};

Spread
spreadOf(const std::vector<double>& xs)
{
    Spread out;
    if (xs.empty())
        return out;
    out.min = *std::min_element(xs.begin(), xs.end());
    out.median = fsup::median(xs);
    std::vector<double> dev;
    for (const double x : xs)
        dev.push_back(std::fabs(x - out.median));
    out.mad = fsup::median(dev);
    return out;
}

/** `key` (the median), `key_min` and `key_mad`. */
void
reportSpread(tools::BenchReport::Scenario& s, const std::string& key,
             const Spread& spread)
{
    s.metric(key, spread.median);
    s.metric(key + "_min", spread.min);
    s.metric(key + "_mad", spread.mad);
}

/** Repetitions behind every wall figure: a median of fewer samples
 *  still moves with a single slow dispatch on a shared host. */
constexpr int kWallReps = 7;

/**
 * Wall ms of `procs` forked children each running `spec` once, side by
 * side; negative when a fork fails.  Only call this while the process
 * runs no other thread (a child of a threaded parent may inherit a
 * held allocator lock).
 */
double
sideBySideMs(int procs, const fc::ScenarioSpec& spec)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> children;
    for (int p = 0; p < procs; ++p) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            fc::CampaignRunner::runOne(spec);
            ::_exit(0);
        }
        if (pid < 0)
            break;
        children.push_back(pid);
    }
    for (const pid_t pid : children)
        ::waitpid(pid, nullptr, 0);
    return children.size() == static_cast<std::size_t>(procs) ? wallMs(t0)
                                                              : -1.0;
}

/**
 * One parallel-capacity trial: how many CPUs two busy processes really
 * get at once, as 2x the wall of one process running `spec` over the
 * wall of two running it side by side (2.0 = two free CPUs, 1.0 =
 * time-sliced onto one).  A real campaign, not a spin loop, so memory
 * contention between the two counts too.  hardware_concurrency counts
 * CPUs the host may not grant; this measures what it grants now.
 */
double
capacityTrial(const fc::ScenarioSpec& spec)
{
    const double one = sideBySideMs(1, spec);
    const double two = sideBySideMs(2, spec);
    return one > 0.0 && two > 0.0 ? 2.0 * one / two : 0.0;
}

// ---------------------------------------------------------------------------
// Scenario 1: skewed-campaign makespan, fleet vs round-robin
// ---------------------------------------------------------------------------

bool
runSkewedMakespan(tools::BenchReport& report, bool smoke)
{
    // The light tail: short memory-bound campaigns, cheap but numerous.
    // The run budget keeps per-spec compute well above the wire and
    // spawn overheads, so the makespan ratio measures scheduling.
    const std::size_t n_lights = smoke ? 12 : 16;
    const std::size_t light_runs = smoke ? 24 : 48;
    std::vector<fc::ScenarioSpec> lights;
    for (std::size_t i = 0; i < n_lights; ++i) {
        lights.push_back(makeSpec(i % 2 == 0 ? "MB-2K-GEMV" : "AG-64KB",
                                  light_runs, 6200 + i));
    }
    double lights_ms = 0.0;
    for (const auto& light : lights) {
        const auto t0 = std::chrono::steady_clock::now();
        fc::CampaignRunner(1).run({light});
        lights_ms += wallMs(t0);
    }

    // Self-tune the heavy spec so its wall clock lands near the whole
    // light tail's: the worst case for static round-robin, where the
    // ideal ratio peaks at 1.5x and falls off either side.  Campaign
    // wall is affine in the run budget (a fixed set-up plus a per-run
    // cost), so two probe budgets, each the median of three runs, give
    // both terms; one probe would fold the set-up into the per-run
    // cost and under-tune the heavy spec.
    auto heavy = makeSpec("CB-8K-GEMM", 0, 6100);
    auto probeMs = [&](std::size_t runs) {
        heavy.opts.runs_override = runs;
        std::vector<double> ms;
        for (int trial = 0; trial < 3; ++trial) {
            const auto t0 = std::chrono::steady_clock::now();
            fc::CampaignRunner(1).run({heavy});
            ms.push_back(wallMs(t0));
        }
        return fsup::median(ms);
    };
    constexpr std::size_t kProbeLow = 8;
    constexpr std::size_t kProbeHigh = 32;
    const double low_ms = probeMs(kProbeLow);
    const double high_ms = probeMs(kProbeHigh);
    const fc::ScenarioSpec capacity_spec = heavy;  // kProbeHigh runs
    // A noisy probe pair can make the slope tiny or negative; a quarter
    // of the high probe's mean per-run cost bounds it from below.
    const double per_run_ms =
        std::max((high_ms - low_ms) / double(kProbeHigh - kProbeLow),
                 std::max(high_ms, 0.1) / double(kProbeHigh) / 4.0);
    const double setup_ms =
        std::max(low_ms - double(kProbeLow) * per_run_ms, 0.0);
    const double scaled = (lights_ms - setup_ms) / per_run_ms;
    const std::size_t heavy_runs = std::min<std::size_t>(
        smoke ? 400 : 1200,
        std::max<std::size_t>(4, static_cast<std::size_t>(scaled)));
    heavy.opts.runs_override = heavy_runs;

    // The heavy spec rides mid-list, where round-robin can't see it.
    const std::size_t heavy_slot = n_lights / 2;
    std::vector<fc::ScenarioSpec> specs = lights;
    specs.insert(specs.begin() + static_cast<long>(heavy_slot), heavy);

    // The static 2-way round-robin partition's bottleneck half, replayed
    // from per-spec costs.
    auto roundRobinMs = [](const std::vector<double>& costs) {
        double half_load[2] = {0.0, 0.0};
        for (std::size_t slot = 0; slot < costs.size(); ++slot)
            half_load[slot % 2] += costs[slot];
        return std::max(half_load[0], half_load[1]);
    };

    // kWallReps repetitions of three parts: a parallel-capacity trial,
    // a per-spec serial pass (one timed run per campaign gives both the
    // bitwise reference and the costs the schedule replay uses;
    // campaigns are independent and seeded, so one at a time is
    // bit-identical to the batch serial path), then one dispatch on a
    // fresh 2-worker fleet, spawns included.  Interleaving lets all
    // three sample the same host conditions, and the wall ratio is
    // taken per repetition (that repetition's serial costs against its
    // fleet wall), so a host that slows between repetitions slows both
    // sides of a ratio.  Medians keep one slow repetition from deciding
    // a floor.
    std::vector<fc::ProfileSet> serial;
    std::vector<std::vector<double>> spec_costs(specs.size());
    std::vector<double> fleet_walls;
    std::vector<double> wall_ratios;
    std::vector<std::size_t> dispatch_order;
    std::vector<double> capacities;
    bool ok = true;
    for (int rep = 0; rep < kWallReps; ++rep) {
        // First in the repetition: the previous fleet is gone, so this
        // process runs no other thread when it forks.
        capacities.push_back(capacityTrial(capacity_spec));
        std::vector<double> rep_costs;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            auto one = fc::CampaignRunner(1).run({specs[i]});
            rep_costs.push_back(std::max(wallMs(t0), 0.01));
            spec_costs[i].push_back(rep_costs.back());
            if (rep == 0)
                serial.push_back(std::move(one.front()));
        }

        auto fleet_backend =
            std::make_shared<fc::FleetBackend>(fleetOptions(2));
        const auto t_fleet0 = std::chrono::steady_clock::now();
        const auto fleet = fc::CampaignRunner(fleet_backend).run(specs);
        fleet_walls.push_back(wallMs(t_fleet0));
        wall_ratios.push_back(roundRobinMs(rep_costs) /
                              std::max(fleet_walls.back(), 0.01));
        const auto& stats = fleet_backend->lastStats();
        if (!identicalSets(serial, fleet)) {
            std::cerr << "FAIL: fleet results diverged from serial\n";
            ok = false;
        }
        if (stats.remote_specs != specs.size()) {
            std::cerr << "FAIL: only " << stats.remote_specs << "/"
                      << specs.size() << " specs crossed the fleet wire\n";
            ok = false;
        }
        if (stats.dispatch_order.size() != specs.size()) {
            std::cerr << "FAIL: clean dispatch order covers "
                      << stats.dispatch_order.size() << "/" << specs.size()
                      << " specs; expected exactly one dispatch each\n";
            ok = false;
        }
        if (rep == 0)
            dispatch_order = stats.dispatch_order;
    }
    std::vector<double> costs;
    for (const auto& samples : spec_costs)
        costs.push_back(fsup::median(samples));
    double serial_ms = 0.0;
    for (const double c : costs)
        serial_ms += c;
    const Spread fleet_wall = spreadOf(fleet_walls);
    const double capacity = fsup::median(capacities);

    // Schedule-quality gate, hardware-independent: replay the fleet's
    // ACTUAL dispatch order (pull = greedy earliest-free seat) against
    // the median per-spec costs and compare with the static
    // round-robin partition's bottleneck half.  This is the makespan
    // the two schedules impose on parallel hardware, and it must clear
    // the 1.3x floor on any host.
    const double rr_sched_ms = roundRobinMs(costs);
    double seat_load[2] = {0.0, 0.0};
    for (const std::size_t slot : dispatch_order) {
        if (slot < costs.size())
            seat_load[seat_load[0] <= seat_load[1] ? 0 : 1] +=
                costs[slot];
    }
    const double fleet_sched_ms = std::max(seat_load[0], seat_load[1]);
    const double sched_speedup =
        fleet_sched_ms > 0.0 ? rr_sched_ms / fleet_sched_ms : 0.0;
    const bool sched_floor_met = sched_speedup >= 1.3;
    if (!sched_floor_met) {
        std::cerr << "FAIL: scheduled makespan speedup " << sched_speedup
                  << "x is below the 1.3x floor (round-robin bottleneck "
                  << rr_sched_ms << " ms vs fleet " << fleet_sched_ms
                  << " ms)\n";
    }

    // The measured fleet wall clock, spawns and wire included, against
    // the replayed round-robin bottleneck (median of the per-repetition
    // ratios): that bound charges the partition nothing for processes
    // or codec, so clearing it is harder than beating a real
    // round-robin run.  The ratio needs two CPUs at once, which the
    // median capacity trial measures.
    // With capacity c the fleet's makespan is at best
    // max(heavy, total / c), so the ideal 1.5x ratio of a heavy spec
    // tuned to the light tail becomes min(1.5, 0.75 c): below c = 1.75
    // the floor is out of reach however good the schedule, and it is
    // not gated.
    constexpr double kMinCapacity = 1.75;
    const std::size_t hw = std::thread::hardware_concurrency();
    const Spread wall_ratio = spreadOf(wall_ratios);
    const double wall_speedup = wall_ratio.median;
    const bool wall_gated = capacity >= kMinCapacity;
    const bool wall_floor_met = wall_speedup >= 1.3;
    if (!wall_gated) {
        std::cerr << "WARNING: parallel-capacity probe measured " << capacity
                  << " of 2 CPUs (need " << kMinCapacity
                  << "): this host cannot show the fleet's 1.3x wall-clock "
                     "gain, so the wall floor is NOT gated on this run "
                     "(wall ratio " << wall_speedup << "x)\n";
    } else if (!wall_floor_met) {
        std::cerr << "FAIL: fleet wall-clock makespan speedup "
                  << wall_speedup << "x is below the 1.3x floor "
                  << "(median of " << kWallReps << " repetitions, min "
                  << wall_ratio.min << "x, MAD " << wall_ratio.mad
                  << "x; parallel capacity " << capacity << ")\n";
    }

    auto& s = report.scenario("skewed_makespan");
    s.note("description",
           "one heavy campaign mid-list among short ones: replayed "
           "2-way round-robin bottleneck vs 2-worker cost-scheduled "
           "fleet pull dispatch (median of fresh fleets), bitwise "
           "identity enforced");
    s.metric("campaigns", static_cast<std::int64_t>(specs.size()));
    s.metric("heavy_runs", static_cast<std::int64_t>(heavy_runs));
    s.metric("hardware_concurrency", static_cast<std::int64_t>(hw));
    s.metric("parallel_capacity", capacity);
    s.metric("repetitions", static_cast<std::int64_t>(kWallReps));
    s.metric("light_tail_wall_ms", lights_ms);
    s.metric("serial_wall_ms", serial_ms);
    reportSpread(s, "fleet_wall_ms", fleet_wall);
    s.metric("roundrobin_schedule_ms", rr_sched_ms);
    s.metric("fleet_schedule_ms", fleet_sched_ms);
    s.metric("makespan_speedup", sched_speedup);
    reportSpread(s, "wall_makespan_ratio", wall_ratio);
    s.note("bit_identical", ok ? "yes" : "NO");
    s.note("floor_1_3x", sched_floor_met ? "yes" : "NO");
    s.note("wall_floor_1_3x", wall_floor_met ? "yes" : "NO");
    s.note("wall_floor_gated",
           wall_gated ? "yes" : "NO (parallel capacity below 1.75)");

    std::cout << "skewed_makespan: serial " << serial_ms
              << " ms; schedule makespan round-robin " << rr_sched_ms
              << " ms vs fleet " << fleet_sched_ms << " ms ("
              << sched_speedup << "x); fleet wall median "
              << fleet_wall.median << " ms (min " << fleet_wall.min
              << ", MAD " << fleet_wall.mad << ", " << kWallReps
              << " fresh fleets) vs round-robin bottleneck ("
              << wall_speedup << "x, parallel capacity " << capacity
              << " of 2, " << hw << " hw); heavy runs " << heavy_runs
              << "; bit-identical: " << (ok ? "yes" : "NO") << "\n";
    return ok && sched_floor_met && (!wall_gated || wall_floor_met);
}

// ---------------------------------------------------------------------------
// Scenario 2: spawn amortization across back-to-back dispatches
// ---------------------------------------------------------------------------

bool
runSpawnAmortization(tools::BenchReport& report, bool smoke)
{
    const std::size_t runs = smoke ? 3 : 6;
    const std::vector<fc::ScenarioSpec> specs = {
        makeSpec("MB-2K-GEMV", runs, 6300),
        makeSpec("AG-64KB", runs, 6301),
        makeSpec("CB-2K-GEMM", runs, 6302),
        makeSpec("MB-4K-GEMV", runs, 6303),
    };

    // kWallReps paired repetitions: the placement-matched in-process
    // reference, then kDispatches back-to-back dispatches through one
    // fresh fleet.  Each figure below is a median over the repetitions.
    const auto pool = std::make_shared<fc::ThreadPoolBackend>(
        std::size_t{2});
    constexpr int kDispatches = 5;
    constexpr double kEpsMs = 0.5;  // overhead floor: below this is noise
    std::vector<fc::ProfileSet> reference;
    std::vector<double> inproc_walls;
    std::vector<std::vector<double>> dispatch_walls(kDispatches);
    std::size_t first_spawns = 0;
    bool ok = true;
    for (int rep = 0; rep < kWallReps; ++rep) {
        const auto t_ref = std::chrono::steady_clock::now();
        reference = fc::CampaignRunner(pool).run(specs);
        inproc_walls.push_back(wallMs(t_ref));

        auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
        for (int d = 1; d <= kDispatches; ++d) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto results = fc::CampaignRunner(backend).run(specs);
            dispatch_walls[d - 1].push_back(wallMs(t0));
            if (!identicalSets(reference, results)) {
                std::cerr << "FAIL: dispatch " << d
                          << " diverged from the in-process reference\n";
                ok = false;
            }
            const auto& stats = backend->lastStats();
            if (d == 1)
                first_spawns = stats.workers_spawned;
            if (d > 1 && stats.workers_spawned != 0) {
                std::cerr << "FAIL: dispatch " << d << " spawned "
                          << stats.workers_spawned
                          << " worker(s); the residents were not reused\n";
                ok = false;
            }
        }
    }
    const Spread inproc = spreadOf(inproc_walls);
    const Spread first = spreadOf(dispatch_walls.front());
    const Spread fifth = spreadOf(dispatch_walls.back());
    const double overhead_first =
        std::max(first.median - inproc.median, kEpsMs);
    const double overhead_fifth =
        std::max(fifth.median - inproc.median, kEpsMs);

    auto& s = report.scenario("spawn_amortization");
    for (int d = 1; d <= kDispatches; ++d)
        s.metric("dispatch" + std::to_string(d) + "_wall_ms",
                 fsup::median(dispatch_walls[d - 1]));
    s.metric("dispatch1_spawns", static_cast<std::int64_t>(first_spawns));
    s.metric("repetitions", static_cast<std::int64_t>(kWallReps));
    reportSpread(s, "inproc_wall_ms", inproc);
    reportSpread(s, "first_dispatch_wall_ms", first);
    reportSpread(s, "fifth_dispatch_wall_ms", fifth);

    const double ratio =
        overhead_fifth > 0.0 ? overhead_first / overhead_fifth : 0.0;
    const bool floor_met = ratio >= 2.0;
    if (!floor_met) {
        std::cerr << "FAIL: amortization ratio " << ratio
                  << "x is below the 2x floor (first dispatch overhead "
                  << overhead_first << " ms, fifth " << overhead_fifth
                  << " ms over the " << inproc.median
                  << " ms in-process reference; medians of " << kWallReps
                  << " fresh fleets)\n";
    }

    s.note("description",
           "five back-to-back dispatches through one persistent fleet: "
           "spawn cost is paid once, warm dispatches must reuse the "
           "residents (zero spawns enforced)");
    s.metric("first_overhead_ms", overhead_first);
    s.metric("fifth_overhead_ms", overhead_fifth);
    s.metric("amortization_speedup", ratio);
    s.note("bit_identical", ok ? "yes" : "NO");
    s.note("floor_2x", floor_met ? "yes" : "NO");

    std::cout << "spawn_amortization: in-process " << inproc.median
              << " ms (MAD " << inproc.mad << "), first dispatch "
              << first.median << " ms (MAD " << first.mad << "), fifth "
              << fifth.median << " ms (MAD " << fifth.mad
              << "): overhead first " << overhead_first << " ms, fifth "
              << overhead_fifth << " ms (" << ratio << "x, medians of "
              << kWallReps << " fresh fleets), bit-identical: "
              << (ok ? "yes" : "NO") << "\n";
    return ok && floor_met;
}

// ---------------------------------------------------------------------------
// Scenario 3: bit-identity under an injected mid-dispatch worker kill
// ---------------------------------------------------------------------------

bool
runDegradedFleet(tools::BenchReport& report, bool smoke)
{
    const auto specs = fingrav::testing::fig10Specs(smoke ? 6 : 16);

    const auto t0 = std::chrono::steady_clock::now();
    const auto serial = fc::CampaignRunner(1).run(specs);
    const double clean_ms = wallMs(t0);

    // Seat 0's first resident dies at its first result frame; the
    // replacement must redispatch only the forfeited spec.
    auto opts = fleetOptions(2);
    opts.backoff_base_ms = 1;
    opts.fault_plan = fsup::FaultPlan::parse("kill:seat=0,frame=0");
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto t1 = std::chrono::steady_clock::now();
    const auto degraded = fc::CampaignRunner(backend).run(specs);
    const double degraded_ms = wallMs(t1);

    const auto& stats = backend->lastStats();
    bool ok = true;
    if (!identicalSets(serial, degraded)) {
        std::cerr << "FAIL: degraded fleet run diverged from the clean "
                     "reference\n";
        ok = false;
    }
    if (stats.journal.empty()) {
        std::cerr << "FAIL: degraded fleet run left an empty journal — "
                     "the injected worker kill was recovered silently\n";
        ok = false;
    }
    if (stats.remote_specs != specs.size()) {
        std::cerr << "FAIL: only " << stats.remote_specs << "/"
                  << specs.size() << " specs crossed the wire; the "
                     "replacement worker did not take over\n";
        ok = false;
    }

    auto& s = report.scenario("degraded_fleet");
    s.note("description",
           "Fig. 10 set under an injected mid-dispatch worker kill: "
           "replacement in the same seat, bitwise identity and a "
           "non-empty degradation journal enforced");
    s.metric("campaigns", static_cast<std::int64_t>(specs.size()));
    s.metric("clean_wall_ms", clean_ms);
    s.metric("degraded_wall_ms", degraded_ms);
    s.metric("worker_failures",
             static_cast<std::int64_t>(stats.worker_failures));
    s.metric("journal_events",
             static_cast<std::int64_t>(stats.journal.size()));
    s.note("bit_identical", ok ? "yes" : "NO");
    s.note("journal_nonempty", stats.journal.empty() ? "NO" : "yes");

    std::cout << "degraded_fleet: clean " << clean_ms
              << " ms, degraded " << degraded_ms << " ms, "
              << stats.worker_failures << " worker failure(s), "
              << stats.journal.size()
              << " journal event(s), bit-identical: "
              << (ok ? "yes" : "NO") << "\n";
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_fleet.json";
    g_cli_path = fc::defaultServeCommand(argv[0]).front();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--cli" && i + 1 < argc) {
            g_cli_path = argv[++i];
        } else {
            std::cerr << "usage: bench_fleet [--smoke] [--out PATH] "
                         "[--cli PATH]\n";
            return 2;
        }
    }

    tools::BenchReport report("fleet");
    bool ok = true;
    ok = runSkewedMakespan(report, smoke) && ok;
    ok = runSpawnAmortization(report, smoke) && ok;
    ok = runDegradedFleet(report, smoke) && ok;

    if (!report.write(out_path)) {
        std::cerr << "bench_fleet: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    if (!ok) {
        std::cerr << "bench_fleet: FAILED (divergence, unreused "
                     "residents, or a missed makespan/amortization "
                     "floor)\n";
        return 1;
    }
    return 0;
}
