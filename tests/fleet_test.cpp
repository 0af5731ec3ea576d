/**
 * @file
 * FleetBackend determinism and supervision contract: persistent
 * workers, cost-ordered pull dispatch, and mid-dispatch replacement
 * must all be invisible in the results, even while workers are dying
 * under fault injection.
 *
 * The gates, in order of importance:
 *  - N-worker fleet execution (1/2/4 residents) is bitwise equal to
 *    ThreadPoolBackend and to the serial loop on the Fig. 10 set and on
 *    a skewed-cost mix (runs_override spread) — placement, pull order
 *    and worker count are invisible;
 *  - every scripted fault (worker kill, corrupt frame, stall, spawn
 *    failure, missing binary — support/fault_injector.hpp) is survived
 *    bit-identically: the seat is refilled by a fresh worker and only
 *    the outstanding spec redispatches where the budget allows, the
 *    in-process fallback takes over where it does not, and every
 *    degradation lands in FleetStats::journal — never silent;
 *  - the redispatch backoff schedule is a pure function of
 *    FleetOptions: same seed + same fault plan => same schedule and
 *    same journal, across repeated runs and across 1/2/4 workers;
 *  - poisoned specs are quarantined instead of killing fresh workers
 *    forever; consecutive spawn failures trip the crash-loop guard;
 *  - back-to-back execute() calls reuse the residents: the second
 *    dispatch spawns zero workers (the amortization bench_fleet
 *    measures, asserted here deterministically);
 *  - dispatch order is longest-predicted-first per core::CostModel —
 *    the cost-model scheduling observable;
 *  - overlapping execute() calls on one instance raise a loud
 *    FatalError instead of corrupting stats silently;
 *  - kernel shorthand specs (gemm:M,N,K) give the same bits in process,
 *    on the fleet and from the cache, as the CLI's --cache-dir runs show;
 *  - the CLI rejects unknown flags with the usage text and a nonzero
 *    exit.
 *
 * The worker binary is the real `fingrav_cli --serve`, resolved via the
 * FINGRAV_CLI_PATH compile definition; injected worker-side faults ride
 * to it as a derived `--fault-plan` argv, so these tests exercise the
 * genuine persistent-subprocess machinery end to end.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/cost_model.hpp"
#include "fingrav/execution_backend.hpp"
#include "fingrav/worker_fleet.hpp"
#include "sim/machine_config.hpp"
#include "support/fault_injector.hpp"
#include "support/logging.hpp"
#include "support/run_journal.hpp"
#include "tests/test_fixtures.hpp"

#ifndef FINGRAV_CLI_PATH
#error "FINGRAV_CLI_PATH must point at the fingrav_cli binary"
#endif

namespace fc = fingrav::core;
namespace fs = fingrav::support;

namespace {

using fingrav::testing::cliServeCommand;
using fingrav::testing::expectAllIdentical;
using fingrav::testing::runCli;
using fs::DegradeKind;

/** The shared Fig. 10 gate set at a test-sized run budget. */
std::vector<fc::ScenarioSpec>
fig10Specs()
{
    return fingrav::testing::fig10Specs(6);
}

/**
 * A deliberately skewed mix: one long campaign (big run budget on a
 * compute-bound kernel) buried mid-list among short ones — the shape
 * round-robin partitioning straggles on and cost-ordered pull dispatch
 * exists to fix.
 */
std::vector<fc::ScenarioSpec>
skewedSpecs()
{
    struct Item {
        const char* label;
        std::size_t runs;
    };
    const Item items[] = {
        {"MB-2K-GEMV", 3}, {"AG-64KB", 3},     {"MB-4K-GEMV", 4},
        {"CB-8K-GEMM", 24}, {"AR-128KB", 3},   {"MB-2K-GEMV", 4},
        {"CB-2K-GEMM", 5},  {"AG-128KB", 3},
    };
    std::vector<fc::ScenarioSpec> specs;
    std::uint64_t seed = 7100;
    for (const auto& item : items) {
        fc::ScenarioSpec spec;
        spec.label = item.label;
        spec.seed = seed++;
        spec.opts.runs_override = item.runs;
        spec.opts.collect_extra_runs = false;
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** Baseline fleet options: real --serve worker, fast backoff. */
fc::FleetOptions
fleetOptions(std::size_t workers, const char* plan = "")
{
    fc::FleetOptions opts;
    opts.workers = workers;
    opts.worker_command = cliServeCommand();
    opts.backoff_base_ms = 1;
    if (plan[0] != '\0')
        opts.fault_plan = fs::FaultPlan::parse(plan);
    return opts;
}

/** Seconds since `t0` on the steady clock. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

TEST(FleetBackend, NWorkerBitIdenticalToThreadPoolAndSerial)
{
    const auto specs = fig10Specs();
    const auto serial = fc::CampaignRunner(1).run(specs);
    const auto pooled =
        fc::CampaignRunner(
            std::make_shared<fc::ThreadPoolBackend>(std::size_t{4}))
            .run(specs);
    expectAllIdentical(serial, pooled, specs, "thread pool vs serial");

    for (const std::size_t workers : {1u, 2u, 4u}) {
        auto backend =
            std::make_shared<fc::FleetBackend>(fleetOptions(workers));
        const auto fleet = fc::CampaignRunner(backend).run(specs);
        expectAllIdentical(serial, fleet, specs, "fleet vs serial");
        // Everything must actually have crossed the wire — a backend
        // quietly falling back in-process would pass the identity gate
        // while proving nothing about the resident workers.
        EXPECT_EQ(backend->lastStats().remote_specs, specs.size())
            << workers << " workers";
        EXPECT_EQ(backend->lastStats().worker_failures, 0u);
        EXPECT_EQ(backend->lastStats().fallback_specs, 0u);
        EXPECT_TRUE(backend->lastStats().journal.empty())
            << backend->lastStats().journal.report();
    }
}

TEST(FleetBackend, ShorthandSpecBitIdenticalOnEveryPath)
{
    // A gemm:M,N,K shorthand resolves through kernels::kernelByLabel on
    // every path: in process, on --serve workers and behind the cache
    // key.  It names CB-2K-GEMM's kernel, so at the same seed and options
    // it also replicates the paper-label campaign bitwise.
    fc::ScenarioSpec shorthand;
    shorthand.label = "gemm:2048,2048,2048";
    shorthand.seed = 5;
    shorthand.opts.runs_override = 10;
    fc::ScenarioSpec paper = shorthand;
    paper.label = "CB-2K-GEMM";
    const std::vector<fc::ScenarioSpec> specs{shorthand, paper};

    const auto reference = fc::CampaignRunner::runOne(shorthand);
    ASSERT_FALSE(reference.ssp.empty());
    EXPECT_TRUE(fc::identicalProfileSets(
        reference, fc::CampaignRunner::runOne(paper)));

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical({reference, reference}, fleet, specs,
                       "2-worker fleet vs runOne");
    EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
    EXPECT_EQ(backend->lastStats().fallback_specs, 0u);

    fingrav::testing::TempDir dir("fingrav_shorthand");
    fc::CacheOptions copts;
    copts.dir = dir.path();
    {
        const fc::CampaignRunner writer(1);
        writer.attachCache(std::make_shared<fc::CampaignCache>(copts));
        writer.run({shorthand});
    }
    fc::CampaignCache warm(copts);
    const auto hit = warm.lookup(shorthand, fingrav::sim::mi300xConfig());
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(fc::identicalProfileSets(reference, *hit));
    EXPECT_EQ(warm.stats().disk_hits, 1u);
}

TEST(FleetBackend, SkewedMixBitIdenticalAcrossWorkerCounts)
{
    const auto specs = skewedSpecs();
    const auto serial = fc::CampaignRunner(1).run(specs);
    for (const std::size_t workers : {1u, 2u, 4u}) {
        auto backend =
            std::make_shared<fc::FleetBackend>(fleetOptions(workers));
        const auto fleet = fc::CampaignRunner(backend).run(specs);
        expectAllIdentical(serial, fleet, specs, "skewed mix");
        EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
        // With fewer seats than specs the finished workers must have
        // pulled follow-up work from the shared queue.
        if (workers < specs.size())
            EXPECT_GT(backend->lastStats().pulls, 0u);
    }
}

TEST(FleetBackend, DispatchOrderIsLongestPredictedFirst)
{
    // One worker serializes the dispatch, so dispatch_order is exactly
    // the scheduler's queue order: descending CostModel::predict, slot
    // ascending on ties.
    const auto specs = skewedSpecs();
    const auto cfg = fingrav::sim::mi300xConfig();

    const fc::CostModel model;
    std::vector<std::size_t> expected(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                         const double ca = model.predict(specs[a], cfg);
                         const double cb = model.predict(specs[b], cfg);
                         if (ca != cb)
                             return ca > cb;
                         return a < b;
                     });

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(1));
    const auto results = backend->execute(specs, cfg);
    EXPECT_EQ(results.size(), specs.size());
    EXPECT_EQ(backend->lastStats().dispatch_order, expected);
    // The heavy CB-8K-GEMM campaign (slot 3) must lead the queue.
    ASSERT_FALSE(backend->lastStats().dispatch_order.empty());
    EXPECT_EQ(backend->lastStats().dispatch_order.front(), 3u);
}

TEST(FleetBackend, ResidentsAmortizeSpawnsAcrossDispatches)
{
    // The tentpole economics, asserted deterministically: the first
    // dispatch spawns the fleet, later dispatches reuse it — zero
    // spawns, same residents, bit-identical results every time.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
    const auto first = backend->execute(specs,
                                        fingrav::sim::mi300xConfig());
    expectAllIdentical(serial, first, specs, "first dispatch");
    EXPECT_EQ(backend->lastStats().workers_spawned, 2u);
    EXPECT_EQ(backend->lastStats().workers_live, 2u);

    for (int round = 0; round < 3; ++round) {
        const auto again = backend->execute(
            specs, fingrav::sim::mi300xConfig());
        expectAllIdentical(serial, again, specs, "warm dispatch");
        EXPECT_EQ(backend->lastStats().workers_spawned, 0u)
            << "warm dispatch " << round << " must reuse the residents";
        EXPECT_EQ(backend->lastStats().keepalive_failures, 0u);
        EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
    }
    EXPECT_EQ(backend->fleet().lifetimeSpawns(), 2u);
}

TEST(FleetBackend, WorkerKilledMidDispatchIsReplacedIdentically)
{
    // Seat 0's first resident dies before delivering its first result
    // (an injected SIGKILL at a worker-lifetime frame index).  The
    // supervisor must replace it in the same seat, redispatch only the
    // forfeited spec, and stay bit-identical with zero fallbacks.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(
        fleetOptions(2, "kill:seat=0,frame=0"));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "mid-dispatch kill");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    EXPECT_EQ(stats.fallback_specs, 0u);
    EXPECT_EQ(stats.worker_failures, 1u);
    EXPECT_EQ(stats.retried_specs, 1u);
    // Two seats plus the replacement spawned into seat 0.
    EXPECT_EQ(stats.workers_spawned, 3u);
    ASSERT_EQ(stats.backoff_ms.size(), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kWorkerDeath), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 1u);
}

TEST(FleetBackend, PoisonedSpecIsQuarantined)
{
    // Every worker spawned into seat 0 dies at its first result frame,
    // generation after generation.  The dispatch scan hands the
    // top-cost spec to seat 0 each time (lowest free seat wins), so
    // after quarantine_deaths deaths that spec must pin to the
    // in-process path instead of burning replacements forever —
    // journaled, bit-identical, while seat 1 delivers its spec.
    auto specs = fig10Specs();
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts =
        fleetOptions(2, "kill:seat=0,frame=0,attempt=*,times=*");
    opts.quarantine_deaths = 2;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "quarantined spec");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.quarantined_specs, 1u);
    EXPECT_EQ(stats.fallback_specs, 1u);
    EXPECT_EQ(stats.remote_specs, 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kQuarantine), 1u);
}

TEST(FleetBackend, CrashLoopDisablesFleetForItsLifetime)
{
    // Injected spawn failures, forever: after crash_loop_spawns
    // consecutive failures the fleet concludes the environment is
    // broken, disables itself, and everything runs in-process —
    // loudly, and still bit-identically.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(2, "spawn-fail:attempt=*,times=*");
    opts.crash_loop_spawns = 3;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "crash loop");

    const auto& stats = backend->lastStats();
    EXPECT_TRUE(stats.crash_loop);
    EXPECT_EQ(stats.remote_specs, 0u);
    EXPECT_EQ(stats.fallback_specs, specs.size());
    EXPECT_EQ(stats.journal.count(DegradeKind::kCrashLoop), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFallback), 1u);
    EXPECT_TRUE(backend->fleet().disabled());
}

TEST(FleetBackend, RetryBudgetExhaustionFallsBackLoudly)
{
    // Every worker dies before its first result, generation after
    // generation; with quarantine effectively off, each slot's retry
    // budget runs dry and every slot must land on the in-process path —
    // journaled, bit-identical.  Each of the four slots is dispatched
    // exactly twice (first try + one retry), so the counts are exact.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(2, "kill:frame=0,attempt=*,times=*");
    opts.max_retries = 1;
    opts.quarantine_deaths = 99;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "retry budget exhausted");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, 0u);
    EXPECT_EQ(stats.fallback_specs, specs.size());
    EXPECT_EQ(stats.retried_specs, specs.size());
    EXPECT_EQ(stats.backoff_ms.size(), specs.size());
    EXPECT_EQ(stats.worker_failures, 2 * specs.size());
    EXPECT_EQ(stats.quarantined_specs, 0u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kWorkerDeath),
              2 * specs.size());
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), specs.size());
    EXPECT_EQ(stats.journal.count(DegradeKind::kQuarantine), 0u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFallback), 1u);
    EXPECT_FALSE(stats.journal.empty());
}

TEST(FleetBackend, CorruptResultFrameForfeitsAndRetries)
{
    // A bit flip in the resident's second result frame: the checksum
    // must reject it, the first result (already delivered) is kept, and
    // only the corrupted spec redispatches to a fresh worker in the
    // same seat.  Nothing corrupt is ever decoded into a result.
    auto specs = fig10Specs();
    specs.resize(3);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(
        fleetOptions(1, "corrupt:seat=0,frame=1"));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "corrupt result frame");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    EXPECT_EQ(stats.fallback_specs, 0u);
    EXPECT_EQ(stats.worker_failures, 1u);
    EXPECT_EQ(stats.retried_specs, 1u);
    EXPECT_EQ(stats.workers_spawned, 2u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFrameCorruption), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 1u);
}

TEST(FleetBackend, StalledWorkerTripsInactivityTimeoutAndRetries)
{
    // A worker that stays alive but stops making progress must trip the
    // opt-in inactivity timeout, be killed, and its spec redispatched
    // — a stalled-but-alive resident must never hang execute().
    auto specs = fig10Specs();
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(1, "stall:frame=0,ms=30000");
    opts.io_timeout_ms = 500;
    opts.max_retries = 1;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto t0 = std::chrono::steady_clock::now();
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    const double wall_s = secondsSince(t0);
    expectAllIdentical(serial, fleet, specs, "stalled worker");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    EXPECT_EQ(stats.fallback_specs, 0u);
    EXPECT_EQ(stats.retried_specs, 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kTimeout), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 1u);
    // Recovery must come from the timeout, not the 30 s stall ending.
    EXPECT_LT(wall_s, 10.0);
}

TEST(FleetBackend, DeadlineBudgetBoundsAStalledDrain)
{
    // The per-spec deadline generalizes the inactivity timeout: even
    // with no io_timeout_ms, a stalled spec must be cut off once its
    // spec_deadline_ms budget (armed when the spec is sent) runs out,
    // and the spec redispatched.
    auto specs = fig10Specs();
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto opts = fleetOptions(1, "stall:frame=0,ms=30000");
    opts.spec_deadline_ms = 2000;
    opts.max_retries = 1;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto t0 = std::chrono::steady_clock::now();
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    const double wall_s = secondsSince(t0);
    expectAllIdentical(serial, fleet, specs, "deadline budget");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.remote_specs, specs.size());
    EXPECT_EQ(stats.fallback_specs, 0u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kTimeout), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 1u);
    EXPECT_LT(wall_s, 10.0);
}

TEST(FleetBackend, MissingWorkerBinaryRecoversViaFallback)
{
    // A real (non-injected) broken environment: exec of a nonexistent
    // binary fails in the child after a successful fork, so the driver
    // observes instant worker deaths.  The spec kills quarantine_deaths
    // replacements, is quarantined, and the run degrades to the
    // in-process path — journaled, bit-identical.
    const std::vector<fc::ScenarioSpec> specs{fig10Specs().front()};
    const auto serial = fc::CampaignRunner(1).run(specs);

    fc::FleetOptions opts;
    opts.workers = 1;
    opts.worker_command = {"/nonexistent/fingrav_worker", "--serve"};
    opts.backoff_base_ms = 1;
    auto backend = std::make_shared<fc::FleetBackend>(opts);
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "missing binary");

    const auto& stats = backend->lastStats();
    EXPECT_EQ(stats.fallback_specs, specs.size());
    EXPECT_EQ(stats.remote_specs, 0u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kWorkerDeath),
              opts.quarantine_deaths);
    EXPECT_EQ(stats.journal.count(DegradeKind::kQuarantine), 1u);
    EXPECT_EQ(stats.journal.count(DegradeKind::kFallback), 1u);
    EXPECT_FALSE(stats.journal.empty());
}

TEST(FleetBackend, RetryScheduleIsDeterministic)
{
    // Same options + same fault plan => the same backoff schedule, the
    // same journal, and bit-identical results — twice in a row, and
    // across 1/2/4 workers.  The plan is seat-pinned (seat 0's first
    // resident dies at its first result), so exactly one redispatch
    // happens at every fleet size, and its backoff is a pure function
    // of (backoff_seed, redispatch index), never of placement or timing.
    auto specs = fig10Specs();
    specs.resize(4);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto run = [&](std::size_t workers) {
        auto opts = fleetOptions(workers, "kill:seat=0,frame=0");
        opts.backoff_base_ms = 5;
        opts.backoff_seed = 42;
        auto backend = std::make_shared<fc::FleetBackend>(opts);
        const auto out = fc::CampaignRunner(backend).run(specs);
        expectAllIdentical(serial, out, specs, "deterministic retry");
        return backend->lastStats();
    };

    const auto first = run(2);
    const auto second = run(2);
    ASSERT_EQ(first.backoff_ms.size(), 1u);
    EXPECT_EQ(first.backoff_ms, second.backoff_ms);
    ASSERT_EQ(first.journal.size(), second.journal.size());
    const auto a = first.journal.events();
    const auto b = second.journal.events();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << "journal diverged at " << i;
        EXPECT_EQ(a[i].detail, b[i].detail) << "journal diverged at " << i;
    }

    for (const std::size_t workers : {1u, 4u}) {
        const auto stats = run(workers);
        EXPECT_EQ(stats.backoff_ms, first.backoff_ms)
            << workers << " workers";
        EXPECT_EQ(stats.journal.count(DegradeKind::kWorkerDeath), 1u);
        EXPECT_EQ(stats.journal.count(DegradeKind::kRetry), 1u);
        EXPECT_EQ(stats.remote_specs, specs.size());
    }
}

TEST(FleetBackend, ReentrantExecuteIsALoudError)
{
    // One instance serves one run at a time.  Re-entering execute()
    // from inside a profile_fn (or any other nesting) must raise
    // FatalError instead of silently interleaving stats and fleet pipes
    // — and the owning run must complete unharmed.
    const auto cfg = fingrav::sim::mi300xConfig();
    auto opts = fleetOptions(1);
    opts.fallback_threads = 1;
    auto backend = std::make_shared<fc::FleetBackend>(opts);

    std::atomic<bool> threw{false};
    auto specs = fig10Specs();
    specs.resize(1);
    specs[0].profile_fn = fc::makeProfileFn(
        [&](fingrav::runtime::HostRuntime& host,
            const fc::ProfilerOptions& popts, fs::Rng rng) {
            try {
                backend->execute({}, cfg);
            } catch (const fs::FatalError&) {
                threw = true;
            }
            return fc::Profiler(host, popts, std::move(rng));
        });

    const auto out = backend->execute(specs, cfg);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(threw.load())
        << "nested execute() must throw FatalError";

    // The guard must release on exit: a fresh, non-nested call works.
    EXPECT_NO_THROW(backend->execute({}, cfg));
}

TEST(FleetBackend, ProfileFnSpecsStayInProcess)
{
    // A custom profiling procedure has no wire form; the backend must
    // keep it local while still dispatching its wire-safe siblings.
    auto specs = fig10Specs();
    specs.resize(3);
    fc::ScenarioSpec custom = specs[1];
    custom.profile_fn = fc::makeProfileFn(
        [](fingrav::runtime::HostRuntime& host,
           const fc::ProfilerOptions& opts, fs::Rng rng) {
            return fc::Profiler(host, opts, std::move(rng));
        });
    specs[1] = custom;
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(2));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "profile_fn mix");
    EXPECT_EQ(backend->lastStats().local_specs, 1u);
    EXPECT_EQ(backend->lastStats().remote_specs, 2u);
    EXPECT_EQ(backend->lastStats().worker_failures, 0u);
}

TEST(FleetBackend, ZeroWorkersIsAUserError)
{
    fc::FleetOptions opts;
    opts.workers = 0;
    EXPECT_THROW(fc::FleetBackend{opts}, fs::FatalError);
}

TEST(FleetBackend, WorkersBeyondSpecCountSpawnOnlySpecCount)
{
    // Surplus seats stay empty: a 16-seat fleet given two specs spawns
    // exactly two residents and still ships everything over the wire.
    auto specs = fig10Specs();
    specs.resize(2);
    const auto serial = fc::CampaignRunner(1).run(specs);

    auto backend = std::make_shared<fc::FleetBackend>(fleetOptions(16));
    const auto fleet = fc::CampaignRunner(backend).run(specs);
    expectAllIdentical(serial, fleet, specs, "surplus seats");
    EXPECT_EQ(backend->lastStats().workers_spawned, specs.size());
    EXPECT_EQ(backend->lastStats().workers_live, specs.size());
    EXPECT_EQ(backend->lastStats().remote_specs, specs.size());
}

TEST(WorkerFleet, DefaultServeCommandResolvesTheCli)
{
    const auto from_cli = fc::defaultServeCommand("/opt/bin/fingrav_cli");
    ASSERT_EQ(from_cli.size(), 2u);
    EXPECT_EQ(from_cli[0], "/opt/bin/fingrav_cli");
    EXPECT_EQ(from_cli[1], "--serve");

    const auto sibling = fc::defaultServeCommand("/opt/bin/bench_fleet");
    ASSERT_EQ(sibling.size(), 2u);
    EXPECT_EQ(sibling[0], "/opt/bin/fingrav_cli");
    EXPECT_EQ(sibling[1], "--serve");
}

TEST(FaultPlan, ParsesWildcardsAndRoundTrips)
{
    const auto plan = fs::FaultPlan::parse(
        "kill:seat=0,frame=1;spawn-fail:times=*;stall:frame=2,ms=250");
    ASSERT_EQ(plan.actions.size(), 3u);
    EXPECT_EQ(plan.actions[0].kind, fs::FaultKind::kKillWorker);
    EXPECT_EQ(plan.actions[0].seat, 0);
    EXPECT_EQ(plan.actions[0].frame, 1);
    EXPECT_EQ(plan.actions[1].kind, fs::FaultKind::kSpawnFail);
    EXPECT_EQ(plan.actions[1].times, fs::FaultAction::kAny);
    EXPECT_EQ(plan.actions[2].kind, fs::FaultKind::kStallPipe);
    EXPECT_EQ(plan.actions[2].stall_ms, 250);

    // toString must round-trip through parse to the same plan text.
    const auto text = plan.toString();
    EXPECT_EQ(fs::FaultPlan::parse(text).toString(), text);
}

TEST(FaultPlan, MalformedPlansAreFatal)
{
    EXPECT_THROW(fs::FaultPlan::parse("explode"), fs::FatalError);
    EXPECT_THROW(fs::FaultPlan::parse("kill:seat=abc"), fs::FatalError);
    EXPECT_THROW(fs::FaultPlan::parse("kill:wibble=1"), fs::FatalError);
    // The seat key was once spelled `shard`; that spelling is now just
    // another unknown key.
    EXPECT_THROW(fs::FaultPlan::parse("kill:shard=0"), fs::FatalError);
}

TEST(FaultPlan, WorkerSubPlanStripsDriverCoordinates)
{
    // The driver hands each worker the sub-plan scripted for its
    // (seat, attempt); seat/attempt are resolved at derivation time,
    // so the worker matches on frame index alone.
    const fs::FaultInjector injector(
        fs::FaultPlan::parse("kill:seat=1,frame=2;corrupt:seat=0"));
    EXPECT_EQ(injector.workerPlan(1, 0), "kill:frame=2");
    EXPECT_EQ(injector.workerPlan(0, 0), "corrupt");
    EXPECT_EQ(injector.workerPlan(2, 0), "");
    // Spawn failures are a driver-side site, never shipped to workers.
    const fs::FaultInjector spawn(fs::FaultPlan::parse("spawn-fail"));
    EXPECT_EQ(spawn.workerPlan(0, 0), "");
}

TEST(RunJournal, RecordsCountsAndReports)
{
    fs::RunJournal journal;
    EXPECT_TRUE(journal.empty());
    journal.record(DegradeKind::kWorkerDeath, "seat ", 0, ": died");
    journal.record(DegradeKind::kRetry, "round 1");
    EXPECT_EQ(journal.size(), 2u);
    EXPECT_EQ(journal.count(DegradeKind::kWorkerDeath), 1u);
    EXPECT_EQ(journal.count(DegradeKind::kQuarantine), 0u);
    const auto report = journal.report();
    EXPECT_NE(report.find("worker-death"), std::string::npos);
    EXPECT_NE(report.find("seat 0: died"), std::string::npos);

    // Copies snapshot the events (the journal rides inside FleetStats).
    const fs::RunJournal copy = journal;
    EXPECT_EQ(copy.size(), 2u);
}

TEST(FingravCli, UnknownFlagRejectedWithUsage)
{
    // The trailing-junk satellite: an unknown --flag after a command
    // must print the usage text and exit nonzero (2), not be ignored.
    std::string output;
    EXPECT_EQ(runCli("profile CB-2K-GEMM --frobnicate", output), 2);
    EXPECT_NE(output.find("unknown option '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(output.find("usage:"), std::string::npos);
    EXPECT_NE(output.find("--fleet"), std::string::npos)
        << "usage text must list the fleet flag";
    EXPECT_NE(output.find("--fault-plan"), std::string::npos)
        << "usage text must list the fault-plan flag";
}

TEST(FingravCli, TrailingJunkAfterListRejected)
{
    std::string output;
    EXPECT_EQ(runCli("list extra-junk", output), 2);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(FingravCli, ShorthandSpecRunsWithCacheDir)
{
    // Shorthand kernels ride the one run path, so --cache-dir takes
    // them: a cold run stores, a warm run hits, and both print the
    // in-process summary.
    const std::string run = "profile gemm:2048,2048,2048 --runs 10 "
                            "--quiet --seed 5";
    std::string plain;
    ASSERT_EQ(runCli(run, plain), 0) << plain;
    fingrav::testing::TempDir dir("fingrav_cli_cache");
    std::string cold;
    std::string warm;
    ASSERT_EQ(runCli(run + " --cache-dir " + dir.path(), cold), 0) << cold;
    ASSERT_EQ(runCli(run + " --cache-dir " + dir.path(), warm), 0) << warm;
    EXPECT_EQ(cold.compare(0, plain.size(), plain), 0) << cold;
    EXPECT_EQ(warm.compare(0, plain.size(), plain), 0) << warm;
    EXPECT_NE(cold.find("1 store(s)"), std::string::npos) << cold;
    EXPECT_NE(warm.find("1 hit(s) (0 memory, 1 disk)"), std::string::npos)
        << warm;
}
