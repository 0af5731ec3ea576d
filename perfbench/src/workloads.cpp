/**
 * @file
 * The four campaign workloads.  All are closed loops with one client
 * and, in process, one campaign thread: on a small host two concurrent
 * campaigns slow each other by 1.6-2x, so more threads would measure
 * the host rather than the code.
 *
 *  - paper_campaigns: the paper's own use.  All fourteen Section V
 *    kernels at the Table I budgets with step-8 top-up, three seeds per
 *    kernel per round, through CampaignRunner(1) with no cache.  The
 *    simulator does nearly all the work.
 *  - contended_campaigns: the eight collectives on an 8-GPU node under
 *    periodic fabric demand plus a background all-reduce.  The same
 *    simulator used through fabric coupling and the runtime's
 *    background channel; an uncoupled fast path leaves it flat.
 *  - knob_sweep: record a few cheap campaigns with extra logger windows,
 *    then answer many window x margin x sync x run-budget points by
 *    restitch, plus autotuneBudget per window (Fig. 8 / Section VI
 *    ablations).  recorded_campaign does most of the work.
 *  - repeat_fleet: batches of cheap fresh specs interleaved with repeats
 *    of large results, through a resident FleetBackend with an attached
 *    CampaignCache whose memory bound sits below the distinct result
 *    bytes, so memory hits, disk hits and stores all occur.  Codec,
 *    cache and dispatch do most of the work.
 *
 * Output checks run outside the timed region.  Every result is checked
 * structurally; fleet and cached results must equal an in-process
 * CampaignRunner::runOne of the same spec; in-process workloads re-run
 * one campaign per round (round 0: the first) and compare bits; every
 * workload checks a fixed canary spec against a digest recorded when
 * the benchmark was introduced, so a run that changes any output bit
 * fails.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "alloc_counter.hpp"
#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/recorded_campaign.hpp"
#include "fingrav/worker_fleet.hpp"
#include "harness.hpp"
#include "sim/machine_config.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

namespace fc = fingrav::core;
namespace fsim = fingrav::sim;
using fingrav::support::Duration;

const fsim::MachineConfig&
config()
{
    static const fsim::MachineConfig cfg = fsim::mi300xConfig();
    return cfg;
}

double
msSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e6;
}

/**
 * Canary digests: the outputs of fixed specs on the tree that introduced
 * this benchmark.  A change to any output bit of the simulator, profiler,
 * recorded-campaign or codec layers fails the canary; a deliberate
 * re-baseline updates these values in a change of its own.
 */
constexpr std::uint64_t kCanaryPaper = 0xee42eefeedbd1d6full;
constexpr std::uint64_t kCanaryContended = 0x82a08a7149bf7914ull;
constexpr std::uint64_t kCanaryKnob = 0x22c69935c0e66950ull;
constexpr std::uint64_t kCanaryFleet = 0x0d6e6fae0f73e514ull;

void
runCanary(Ctx& ctx, const char* what, std::uint64_t expected,
          std::uint64_t got)
{
    std::printf("canary %s digest=%016llx expected=%016llx\n", what,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(expected));
    ctx.checkOperation(got == expected,
                       std::string("canary ") + what + " digest mismatch");
}

/** Codec round trip of one delivered result (traced passes only). */
void
codecProbe(Ctx& ctx, const fc::ProfileSet& set)
{
    Scope probe("codec probe", layer::kCheck);
    std::vector<std::uint8_t> bytes;
    std::int64_t t0 = nowNs();
    {
        Scope s("codec::encode", layer::kCodec);
        bytes = fc::codec::encode(set);
    }
    const double enc_s = msSince(t0) / 1e3;
    t0 = nowNs();
    fc::ProfileSet back;
    {
        Scope s("codec::decodeProfileSet", layer::kCodec);
        back = fc::codec::decodeProfileSet(bytes);
    }
    const double dec_s = msSince(t0) / 1e3;
    ctx.add("codec.bytes", static_cast<double>(bytes.size()));
    ctx.add("codec.sets", 1.0);
    ctx.add("codec.encode_s", enc_s);
    ctx.add("codec.decode_s", dec_s);
    ctx.check(fc::identicalProfileSets(back, set),
              "codec round trip of " + set.label);
}

/** Work and yield counts of one delivered result (traced passes). */
void
tallyYield(Ctx& ctx, const fc::ProfileSet& set)
{
    ctx.add("profiler.lois", static_cast<double>(set.ssp.size()), true);
    ctx.add("profiler.loi_yield_sum", set.loiYield(), true);
    ctx.add("binning.golden_sum", set.binning.goldenFraction(), true);
    ctx.add("yield.sets", 1.0, true);
}

// ---------------------------------------------------------------------------
// In-process campaigns: paper_campaigns and contended_campaigns
// ---------------------------------------------------------------------------

using SpecFn = fc::ScenarioSpec (*)(const std::string& label,
                                   std::uint64_t seed);

fc::ScenarioSpec
isolated(const std::string& label, std::uint64_t seed)
{
    fc::ScenarioSpec spec;
    spec.label = label;
    spec.seed = seed;
    return spec;
}

/**
 * The run budget of every timed campaign and recording.  On a shared
 * host the code runs at full speed only in bursts of tens of
 * milliseconds, so only requests about that short have repetitions at
 * full speed; a Table I budget makes a campaign 10-400 ms long.  Ten
 * runs (up to twenty with step-8 top-up) keep every campaign under
 * about 10 ms and still give each one golden runs and an SSP profile.
 */
constexpr std::size_t kBudgetRuns = 10;

fc::ScenarioSpec
budgeted(fc::ScenarioSpec spec)
{
    spec.opts.runs_override = kBudgetRuns;
    return spec;
}

/** Periodic fabric demand plus a background all-reduce on device 1. */
fc::ScenarioSpec
contended(const std::string& label, std::uint64_t seed)
{
    using namespace fingrav::support::literals;
    fc::ScenarioSpec spec = isolated(label, seed);
    spec.devices = 8;
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.3;
    demand.offset = 250_us;
    demand.period = 3_ms;
    demand.duty_cycle = 0.5;
    spec.background.push_back(demand);
    fc::BackgroundLoad allreduce;
    allreduce.kind = fc::BackgroundKind::kKernel;
    allreduce.kernel = "AR-512MB";
    allreduce.device = 1;
    allreduce.offset = 500_us;
    allreduce.period = 8_ms;
    allreduce.duty_cycle = 0.4;
    spec.background.push_back(allreduce);
    return spec;
}

/**
 * paper_campaigns and contended_campaigns: each round profiles every
 * label at `seeds` seeds derived from --seed, one campaign per request,
 * through CampaignRunner(1).  Every round repeats the same specs, so a
 * slot's fastest repetition is the code's speed on that spec; few seeds
 * keep a round short enough for many repetitions in a run.  A batch is
 * every label at one seed: campaign costs differ by 20x between labels
 * and 3x between seeds of one label, so a percentile over single
 * campaigns would jump between labels from seed to seed.
 */
class CampaignWorkload final : public Workload {
  public:
    CampaignWorkload(std::vector<std::string> labels, std::size_t seeds,
                     SpecFn make, std::string fixed_label,
                     std::uint64_t canary)
        : labels_(std::move(labels)), seeds_(seeds), make_(make),
          fixed_label_(std::move(fixed_label)), canary_(canary)
    {
    }

    std::uint64_t
    batchOf(std::uint64_t slot) const override
    {
        return slot / labels_.size();
    }

    /**
     * A fresh runner warmed up on one batch: every label once, at a
     * seed independent of --seed.  Tens of milliseconds, so the median
     * set-up moves smoothly with the host's load instead of jumping
     * between its two speeds.
     */
    void
    setup(Ctx&) override
    {
        runner_ = std::make_unique<fc::CampaignRunner>(1);
        std::vector<fc::ScenarioSpec> warm;
        for (const auto& label : labels_)
            warm.push_back(budgeted(make_(label, 11)));
        runner_->run(warm, config());
    }

    void
    canary(Ctx& ctx) override
    {
        const auto set = fc::CampaignRunner::runOne(fixedSpec(), config());
        runCanary(ctx, fixed_label_.c_str(), canary_, digest(set));
    }

    void
    round(std::size_t index, Ctx& ctx) override
    {
        const std::size_t n = seeds_ * labels_.size();
        const std::size_t rechecked = (index * 5) % n;
        for (std::size_t i = 0; i < n; ++i) {
            const auto spec = budgeted(make_(labels_[i % labels_.size()],
                                             specSeed(ctx.opts().seed, 0, i)));
            fc::ProfileSet set;
            double profile_s = 0.0;
            ctx.request("campaign", i, [&] {
                if (ctx.traced())
                    set = tracedCampaign(spec, ctx, profile_s);
                else
                    set = std::move(runner_->run(
                        std::vector<fc::ScenarioSpec>{spec}, config())[0]);
            });
            ctx.maybeFlip(set);
            ctx.delivered(set, true);
            ctx.addPoint();
            ctx.mixDigest(digest(set));
            ctx.sameAsFirst(digest(set), "campaign " + spec.label);
            bool ok = wellFormed(set, spec.label, true);
            if (i == rechecked) {
                Scope s("recheck runOne", layer::kCheck);
                ok = ok && fc::identicalProfileSets(
                               set, fc::CampaignRunner::runOne(spec,
                                                               config()));
            }
            ctx.check(ok, "campaign " + spec.label + " output check");
            if (ctx.traced()) {
                tallyYield(ctx, set);
                codecProbe(ctx, set);
                if (i == rechecked)
                    stitchProbe(ctx, spec, set, profile_s);
            }
        }
    }

  private:
    /** Warm-up and canary spec, independent of --seed. */
    fc::ScenarioSpec fixedSpec() const { return make_(fixed_label_, 11); }

    /**
     * CampaignRunner::runOne spelled out so the node outlives the
     * profile call and its devices' step counters can be read.
     */
    static fc::ProfileSet
    tracedCampaign(const fc::ScenarioSpec& spec, Ctx& ctx, double& profile_s)
    {
        const AllocCounts a0 = allocCounts();
        std::optional<fc::CampaignNode> node;
        {
            Scope s("CampaignNode", layer::kSim);
            node.emplace(spec, config());
        }
        fc::ProfileSet set;
        const std::int64_t t0 = nowNs();
        {
            Scope s("Profiler::profile", layer::kProfiler);
            set = fc::Profiler(node->host(), spec.opts, node->profilerRng())
                      .profile(node->kernel());
        }
        profile_s = msSince(t0) / 1e3;
        double stretches = 0.0;
        auto& sim = node->simulation();
        for (std::size_t d = 0; d < sim.deviceCount(); ++d) {
            stretches +=
                static_cast<double>(sim.device(d).stepStats().stretches);
        }
        node.reset();
        const AllocCounts a1 = allocCounts();
        ctx.add("sim.stretches_det", stretches, true);
        ctx.add("runs_det", static_cast<double>(set.runs_executed), true);
        ctx.add("process.allocs_det",
                static_cast<double>(a1.allocs - a0.allocs), true);
        ctx.add("process.alloc_bytes_det",
                static_cast<double>(a1.bytes - a0.bytes), true);
        ctx.add("sim.stretches", stretches);
        ctx.sample("profiler.profile_ms", profile_s * 1e3);
        return set;
    }

    /**
     * Steps 6-9 share of a campaign: record the same spec and time one
     * restitch at the recorded parameters, next to the live profile.
     */
    static void
    stitchProbe(Ctx& ctx, const fc::ScenarioSpec& spec,
                const fc::ProfileSet& live, double profile_s)
    {
        Scope probe("stitch probe", layer::kCheck);
        std::int64_t t0 = nowNs();
        std::optional<fc::RecordedCampaign> rec;
        {
            Scope s("RecordedCampaign::record", layer::kRecorded);
            rec.emplace(fc::RecordedCampaign::record(spec, {}, config()));
        }
        ctx.sample("recorded_campaign.record_ms", msSince(t0));
        t0 = nowNs();
        fc::ProfileSet again;
        {
            Scope s("RecordedCampaign::restitch", layer::kRecorded);
            again = rec->restitch();
        }
        const double restitch_s = msSince(t0) / 1e3;
        ctx.sample("recorded_campaign.restitch_us", restitch_s * 1e6);
        ctx.add("recorded_campaign.restitch_s", restitch_s);
        ctx.add("recorded_campaign.points",
                static_cast<double>(again.sse.size() + again.ssp.size() +
                                    again.timeline.size()));
        ctx.add("stitch.restitch_s", restitch_s);
        ctx.add("stitch.profile_s", profile_s);
        ctx.check(wellFormed(again, live.label, true),
                  "recorded restitch of " + spec.label + " output check");
    }

    std::vector<std::string> labels_;
    std::size_t seeds_;
    SpecFn make_;
    std::string fixed_label_;
    std::uint64_t canary_;
    std::unique_ptr<fc::CampaignRunner> runner_;
};

// ---------------------------------------------------------------------------
// knob_sweep
// ---------------------------------------------------------------------------

class KnobSweep final : public Workload {
  public:
    /** A batch is one kernel's sweep: its recording, every restitch
     *  point and every autotune.  Single points cost 10 us to 1 ms
     *  depending on the recording a seed gives, so a tail over points
     *  would move with the seed. */
    std::uint64_t
    batchOf(std::uint64_t slot) const override
    {
        return slot / kSlotStride;
    }

    void
    setup(Ctx&) override
    {
        // One recording and its whole sweep, at a seed independent of
        // --seed: tens of milliseconds, like the campaign workloads'.
        auto rec = fc::RecordedCampaign::record(
            budgeted(isolated("AG-1GB", 11)), extraWindows(), config());
        for (const auto& p : sweepPoints(rec))
            (void)rec.restitch(p);
    }

    void
    canary(Ctx& ctx) override
    {
        const auto rec = fc::RecordedCampaign::record(
            isolated("AG-1GB", 11), extraWindows(), config());
        fc::SweepPoint p;
        p.window_index = 1;
        p.margin = 0.02;
        p.sync_mode = fc::SyncMode::kFinGraVDrift;
        runCanary(ctx, "knob AG-1GB restitch", kCanaryKnob,
                  digest(rec.restitch(p)));
    }

    void
    round(std::size_t index, Ctx& ctx) override
    {
        // Cheap to record, so restitch points dominate the round.
        static const std::vector<std::string> kLabels = {
            "CB-4K-GEMM", "AG-1GB", "AR-512MB", "CB-8K-GEMM"};
        // Kernel k's requests are slots k * kSlotStride + i; rounds 2j and
        // 2j+1 share a kernel so a traced run compares like with like.
        const std::size_t kernel = (index / 2) % kLabels.size();
        const std::string& label = kLabels[kernel];
        const std::uint64_t slot0 = kernel * kSlotStride;
        const auto s =
            budgeted(isolated(label, specSeed(ctx.opts().seed, 0, kernel)));
        std::optional<fc::RecordedCampaign> rec;
        const double record_ms = ctx.request("record", slot0, [&] {
            Scope span("RecordedCampaign::record", layer::kRecorded);
            rec.emplace(fc::RecordedCampaign::record(s, extraWindows(),
                                                     config()));
        });
        if (!rec)
            return;
        ctx.addCampaign();
        if (ctx.traced()) {
            ctx.sample("recorded_campaign.record_ms", record_ms);
            ctx.add("recorded_campaign.record_s", record_ms / 1e3);
        }

        const auto points = sweepPoints(*rec);
        const std::size_t rechecked = (index * 7) % points.size();
        std::optional<fc::ProfileSet> kept;
        const std::string what = "restitch " + label;
        for (std::size_t i = 0; i < points.size(); ++i) {
            fc::ProfileSet set;
            const double ms = ctx.request("restitch", slot0 + 1 + i, [&] {
                Scope span("RecordedCampaign::restitch", layer::kRecorded);
                set = rec->restitch(points[i]);
            });
            ctx.maybeFlip(set);
            ctx.delivered(set, false);
            ctx.addPoint();
            const std::uint64_t d = digest(set);
            ctx.mixDigest(d);
            ctx.sameAsFirst(d, what);
            ctx.check(wellFormed(set, label, false), what);
            if (ctx.traced()) {
                ctx.sample("recorded_campaign.restitch_us", ms * 1e3);
                ctx.add("recorded_campaign.restitch_s", ms / 1e3);
                ctx.add("recorded_campaign.points",
                        static_cast<double>(set.sse.size() + set.ssp.size() +
                                            set.timeline.size()));
                tallyYield(ctx, set);
                if (i == 0)
                    codecProbe(ctx, set);
            }
            if (i == rechecked)
                kept = std::move(set);
        }
        for (std::size_t w = 0; w < rec->windows().size(); ++w) {
            fc::AutotuneResult tuned;
            ctx.request("autotune", slot0 + 1 + points.size() + w, [&] {
                Scope span("RecordedCampaign::autotuneBudget",
                           layer::kRecorded);
                tuned = rec->autotuneBudget(0, w);
            });
            ctx.addPoint();
            ctx.mixDigest(tuned.runs_needed * 1315423911u + w);
            ctx.sameAsFirst(tuned.runs_needed, "autotune " + label);
            ctx.check(tuned.pool_runs == rec->runCount() &&
                          tuned.runs_needed <= tuned.pool_runs &&
                          tuned.window_index == w,
                      "autotune " + label);
        }
        Scope recheck("recheck restitch", layer::kCheck);
        ctx.check(kept && fc::identicalProfileSets(
                              *kept, rec->restitch(points[rechecked])),
                  what + " repeats bit for bit");
    }

  private:
    static constexpr std::uint64_t kSlotStride = 1u << 16;

    static std::vector<Duration>
    extraWindows()
    {
        return {Duration::millis(2.0), Duration::millis(4.0),
                Duration::millis(10.0)};
    }

    /** window x sync mode x margin x run-budget prefix x binning. */
    static std::vector<fc::SweepPoint>
    sweepPoints(const fc::RecordedCampaign& rec)
    {
        const std::size_t base = rec.baseRuns();
        const std::vector<std::optional<std::size_t>> budgets = {
            std::nullopt, std::max<std::size_t>(2, base / 2), base,
            rec.runCount()};
        const std::vector<std::optional<double>> margins = {
            std::nullopt, 0.02, 0.05, 0.10, 0.20};
        std::vector<fc::SweepPoint> points;
        for (std::size_t w = 0; w < rec.windows().size(); ++w) {
            for (auto mode :
                 {fc::SyncMode::kFinGraV, fc::SyncMode::kFinGraVDrift,
                  fc::SyncMode::kNoDelayAccounting,
                  fc::SyncMode::kCoarseAlign}) {
                for (const auto& margin : margins) {
                    for (const auto& runs : budgets) {
                        for (bool binning : {true, false}) {
                            fc::SweepPoint p;
                            p.window_index = w;
                            p.sync_mode = mode;
                            p.margin = margin;
                            p.runs = runs;
                            p.binning = binning;
                            points.push_back(p);
                        }
                    }
                }
            }
        }
        return points;
    }
};

// ---------------------------------------------------------------------------
// repeat_fleet
// ---------------------------------------------------------------------------

class RepeatFleet final : public Workload {
  public:
    ~RepeatFleet() override { removeStore(); }

    void
    prepare(Ctx& ctx) override
    {
        static const std::vector<std::string> kLarge = {
            "AR-1GB", "AG-1GB", "AR-512MB", "AG-512MB"};
        for (std::size_t i = 0; i < kLarge.size(); ++i) {
            pool_.push_back(
                isolated(kLarge[i], specSeed(ctx.opts().seed, 1u << 30, i)));
            refs_.push_back(fc::CampaignRunner::runOne(pool_[i], config()));
        }
        dir_ = std::string(kOutDir) + "/cache-" + std::to_string(::getpid());
        std::filesystem::remove_all(dir_);
        // Prime the disk store: the workload measures repeats, not the
        // first execution of each large spec.
        fc::CacheOptions opts;
        opts.dir = dir_;
        fc::CampaignCache primer(opts);
        std::size_t bytes = 0;
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            primer.store(pool_[i], config(), refs_[i]);
            bytes += fc::codec::encode(refs_[i]).size();
        }
        // Below the distinct large-result bytes, so hits split between
        // the memory tier and the disk store.
        memory_cap_ = bytes / 2;
        const unsigned hw = std::thread::hardware_concurrency();
        workers_ = std::clamp<std::size_t>(hw > 1 ? hw - 1 : 1, 1, kFresh);
    }

    void
    setup(Ctx& ctx) override
    {
        backend_.reset();  // shuts the previous setup's residents down
        fc::CacheOptions copts;
        copts.dir = dir_;
        copts.memory_capacity_bytes = memory_cap_;
        cache_ = std::make_shared<fc::CampaignCache>(copts);
        fc::FleetOptions fopts;
        fopts.workers = workers_;
        fopts.worker_command = fc::defaultServeCommand(ctx.opts().argv0);
        fopts.fallback_threads = 1;
        backend_ = std::make_shared<fc::FleetBackend>(fopts);
        backend_->attachCache(cache_);
        std::vector<fc::ScenarioSpec> warm = pool_;
        for (std::size_t j = 0; j < workers_; ++j)
            warm.push_back(fresh(j, specSeed(ctx.opts().seed, 1u << 31,
                                             setups_ * 8 + j)));
        ++setups_;
        backend_->execute(warm, config());
        if (backend_->lastStats().fallback_specs != 0)
            throw std::runtime_error("fleet warm-up fell back in-process");
    }

    void
    canary(Ctx& ctx) override
    {
        // The fleet path end to end on a fixed spec: shipped to a
        // worker, returned over the wire.
        const auto spec = fresh(0, 11);
        auto out = backend_->execute({spec}, config());
        runCanary(ctx, "fleet CB-4K-GEMM", kCanaryFleet, digest(out.at(0)));
    }

    void
    round(std::size_t index, Ctx& ctx) override
    {
        const fc::CacheStats before = cache_->stats();
        for (std::size_t b = 0; b < kBatches; ++b)
            batch(index, b, ctx);
        if (ctx.countRound()) {
            const fc::CacheStats after = cache_->stats();
            auto d = [&](const char* name, std::uint64_t a,
                         std::uint64_t z) {
                ctx.add(name, static_cast<double>(z - a), true);
            };
            d("campaign_cache.memory_hits", before.memory_hits,
              after.memory_hits);
            d("campaign_cache.disk_hits", before.disk_hits, after.disk_hits);
            d("campaign_cache.misses", before.misses, after.misses);
            d("campaign_cache.corrupt_misses", before.corrupt_misses,
              after.corrupt_misses);
            d("campaign_cache.store_failures", before.store_failures,
              after.store_failures);
            d("campaign_cache.disk_bytes_read", before.disk_bytes_read,
              after.disk_bytes_read);
            d("campaign_cache.disk_bytes_written",
              before.disk_bytes_written, after.disk_bytes_written);
        }
    }

    void
    finish(Ctx&) override
    {
        backend_.reset();
        cache_.reset();
        removeStore();
    }

  private:
    /** Fresh specs per batch, and the most fleet workers: each batch's
     *  fresh specs run one per worker.  Two, not nproc - 1: a batch
     *  waits for its slowest worker, and on a shared host every extra
     *  parallel worker widened the run-to-run spread. */
    static constexpr std::size_t kFresh = 2;
    static constexpr std::size_t kRepeats = 4;  ///< repeats per batch
    /** Batches per round: few enough that every batch shape repeats
     *  often in a run, since a slot stands for its fastest repetition. */
    static constexpr std::size_t kBatches = 20;

    static fc::ScenarioSpec
    fresh(std::size_t j, std::uint64_t seed)
    {
        // Short campaigns: a small fixed budget and no top-up keep the
        // simulator's part of a batch small next to dispatch and cache.
        static const std::vector<std::string> kCheap = {"CB-4K-GEMM",
                                                        "AG-1GB"};
        fc::ScenarioSpec s = isolated(kCheap[j % kCheap.size()], seed);
        s.opts.runs_override = 12;
        s.opts.collect_extra_runs = false;
        return s;
    }

    void
    batch(std::size_t index, std::size_t b, Ctx& ctx)
    {
        // Fresh and repeated specs interleaved.  Repeats are drawn with
        // replacement from the large pool, the same draw for batch b of
        // every round and every --seed, so slot b keeps its shape (and
        // its memory and disk hits) while the specs' seeds change.
        fingrav::support::Rng pick(specSeed(0, 0, 1000 + b));
        std::vector<fc::ScenarioSpec> specs;
        std::vector<long> ref_of;  ///< pool index, -1 = fresh
        for (std::size_t k = 0; k < kFresh + kRepeats; ++k) {
            if (k % 2 == 0 && k / 2 < kFresh) {
                specs.push_back(fresh(k / 2, specSeed(ctx.opts().seed, index,
                                                      b * 8 + k / 2)));
                ref_of.push_back(-1);
            } else {
                const auto i = static_cast<std::size_t>(
                    pick.uniformInt(0, static_cast<std::int64_t>(
                                           pool_.size()) - 1));
                specs.push_back(pool_[i]);
                ref_of.push_back(static_cast<long>(i));
            }
        }

        std::vector<fc::ProfileSet> out;
        const double batch_ms = ctx.request("batch", b, [&] {
            out = ctx.traced() ? tracedBatch(specs, ctx)
                               : backend_->execute(specs, config());
        });
        const fc::FleetStats& fs = backend_->lastStats();
        auto det = [&](const char* name, std::size_t v) {
            ctx.add(name, static_cast<double>(v), true);
        };
        det("worker_fleet.remote_specs", fs.remote_specs);
        det("worker_fleet.pulls", fs.pulls);
        det("worker_fleet.workers_spawned", fs.workers_spawned);
        det("worker_fleet.fallback_specs", fs.fallback_specs);
        det("worker_fleet.retried_specs", fs.retried_specs);
        det("worker_fleet.worker_failures", fs.worker_failures);

        Scope s("verify batch", layer::kCheck);
        bool ok = out.size() == specs.size();
        double longest_fresh_ms = 0.0;
        for (std::size_t k = 0; k < out.size(); ++k) {
            ctx.maybeFlip(out[k]);
            ctx.delivered(out[k], true);
            ctx.addPoint();
            ctx.mixDigest(digest(out[k]));
            if (ref_of[k] >= 0) {
                ok = fc::identicalProfileSets(out[k], refs_[ref_of[k]]) && ok;
                continue;
            }
            const std::int64_t t0 = nowNs();
            const auto ref = fc::CampaignRunner::runOne(specs[k], config());
            longest_fresh_ms = std::max(longest_fresh_ms, msSince(t0));
            ok = fc::identicalProfileSets(out[k], ref) && ok;
        }
        for (std::size_t k = 0; ctx.traced() && k < out.size(); ++k) {
            tallyYield(ctx, out[k]);
            codecProbe(ctx, out[k]);
        }
        ctx.check(ok, "fleet batch output equals in-process runOne");
        if (ctx.traced() && fs.remote_specs > 0) {
            // Fresh specs run in parallel seats, one per worker, so the
            // longest one is the batch's critical path.
            ctx.add("worker_fleet.overhead_ms", batch_ms - longest_fresh_ms);
            ctx.add("worker_fleet.overhead_specs",
                    static_cast<double>(fs.remote_specs));
        }
    }

    /**
     * The backend's cache consult spelled out so each layer call gets
     * its own span: look every spec up in order, dispatch the misses,
     * store their results in order (ExecutionBackend::consultCache /
     * commitCache do exactly this).
     */
    std::vector<fc::ProfileSet>
    tracedBatch(const std::vector<fc::ScenarioSpec>& specs, Ctx& ctx)
    {
        struct Reattach {
            fc::FleetBackend& backend;
            std::shared_ptr<fc::CampaignCache> cache;
            ~Reattach() { backend.attachCache(cache); }
        } reattach{*backend_, cache_};
        backend_->attachCache(nullptr);
        std::vector<fc::ProfileSet> out(specs.size());
        std::vector<fc::ScenarioSpec> pending;
        std::vector<std::size_t> slots;
        for (std::size_t k = 0; k < specs.size(); ++k) {
            const auto disk0 = cache_->stats().disk_hits;
            const std::int64_t t0 = nowNs();
            std::optional<fc::ProfileSet> hit;
            {
                Scope s("CampaignCache::lookup", layer::kCache);
                hit = cache_->lookup(specs[k], config());
            }
            const double us = msSince(t0) * 1e3;
            ctx.sample("campaign_cache.lookup_us", us);
            if (cache_->stats().disk_hits != disk0)
                ctx.sample("campaign_cache.disk_lookup_us", us);
            if (hit) {
                out[k] = std::move(*hit);
            } else {
                pending.push_back(specs[k]);
                slots.push_back(k);
            }
        }
        std::vector<fc::ProfileSet> executed;
        {
            Scope s("FleetBackend::execute", layer::kFleet);
            executed = backend_->execute(pending, config());
        }
        for (std::size_t j = 0; j < executed.size(); ++j) {
            {
                Scope s("CampaignCache::store", layer::kCache);
                cache_->store(pending[j], config(), executed[j]);
            }
            out[slots[j]] = std::move(executed[j]);
        }
        return out;
    }

    void
    removeStore()
    {
        if (!dir_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir_, ec);
        }
    }

    std::vector<fc::ScenarioSpec> pool_;
    std::vector<fc::ProfileSet> refs_;
    std::string dir_;
    std::size_t memory_cap_ = 0;
    std::size_t workers_ = 1;
    std::size_t setups_ = 0;
    std::shared_ptr<fc::CampaignCache> cache_;
    std::shared_ptr<fc::FleetBackend> backend_;
};

}  // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string& name)
{
    if (name == "paper_campaigns") {
        return std::make_unique<CampaignWorkload>(
            std::vector<std::string>{"CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM",
                                     "MB-8K-GEMV", "MB-4K-GEMV", "MB-2K-GEMV",
                                     "AG-64KB", "AG-128KB", "AG-512MB",
                                     "AG-1GB", "AR-64KB", "AR-128KB",
                                     "AR-512MB", "AR-1GB"},
            3, isolated, "CB-2K-GEMM", kCanaryPaper);
    }
    if (name == "contended_campaigns") {
        return std::make_unique<CampaignWorkload>(
            std::vector<std::string>{"AG-64KB", "AG-128KB", "AG-512MB",
                                     "AG-1GB", "AR-64KB", "AR-128KB",
                                     "AR-512MB", "AR-1GB"},
            3, contended, "AG-64KB", kCanaryContended);
    }
    if (name == "knob_sweep")
        return std::make_unique<KnobSweep>();
    if (name == "repeat_fleet")
        return std::make_unique<RepeatFleet>();
    return nullptr;
}

}  // namespace perfbench
