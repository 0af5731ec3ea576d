/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--flip-result K]
 *
 * Sets the workload up several times (setup_s is the median), checks a
 * canary, then runs closed-loop rounds until S seconds of timed requests
 * have passed, checking every output outside the timed region.  The last
 * line of standard output is one JSON object: end-to-end metrics when
 * untraced, per-layer metrics when traced.  Host time throughout; the
 * simulated node's own time never enters a metric.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "alloc_counter.hpp"
#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr int kSetupReps = 11;
/** Rounds stop starting after this much wall time, whatever --seconds
 *  says, so a run always exits well inside its time limit. */
constexpr double kWallCapS = 120.0;

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--flip-result K]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    o.argv0 = argv[0];
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                o.trace = std::stoi(v) != 0;
            } else if (a == "--flip-result") {
                o.flip_result = std::stol(v);
            } else {
                usage(("unknown option " + a).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

void
printMetrics(const std::vector<Metric>& ms)
{
    for (const auto& m : ms)
        std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::vector<Metric>
endToEnd(const Pass& pass, double setup_s, double cpu_s)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"setup_s", setup_s, "s"},
        {"campaigns_per_s", ratio(pass.campaigns, pass.seconds), "1/s"},
        {"runs_per_s", ratio(pass.runs, pass.seconds), "1/s"},
        {"sweep_points_per_s", ratio(pass.points, pass.seconds), "1/s"},
        {"batch_p50_ms", interpolatedPercentile(pass.batch_ms, 50.0), "ms"},
        {"batch_tail_ms",
         interpolatedPercentile(pass.batch_ms, kBatchTailPercentile), "ms"},
        {"cpu_s", cpu_s, "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
}

std::vector<Metric>
perLayer(const Ctx& ctx, long invol_ctx_switches)
{
    double traced_s = 0.0;
    for (const auto& r : ctx.rounds())
        traced_s += r.traced ? r.timed_s : 0.0;
    // Passes over the slots both halves ran.
    double pass_untraced = 0.0, pass_traced = 0.0;
    for (const auto& [key, s] : ctx.slots(true)) {
        const auto it = ctx.slots(false).find(key);
        if (it == ctx.slots(false).end())
            continue;
        pass_traced += slotTime(s);
        pass_untraced += slotTime(it->second);
    }
    const auto self = tracer().requestSelfSeconds();
    auto selfOf = [&](const char* l) {
        const auto it = self.find(l);
        return it == self.end() ? 0.0 : it->second;
    };
    auto c = [&](const char* n) { return ctx.counter(n); };
    const double stitch_share =
        ratio(c("stitch.restitch_s"), c("stitch.profile_s"));
    const double sim_s = selfOf(layer::kSim) +
                         selfOf(layer::kProfiler) * (1.0 - stitch_share);
    const double runs_det = c("runs_det");
    const double sets = c("yield.sets");
    const auto& profile_ms = ctx.samples("profiler.profile_ms");
    const auto& restitch_us = ctx.samples("recorded_campaign.restitch_us");
    const double hits =
        c("campaign_cache.memory_hits") + c("campaign_cache.disk_hits");
    std::size_t spans = tracer().spans().size();

    return {
        {"sim.stretches_per_run", ratio(c("sim.stretches_det"), runs_det),
         "count"},
        {"sim.ns_per_stretch", ratio(sim_s * 1e9, c("sim.stretches")), "ns"},
        {"sim.share", ratio(sim_s, traced_s), "frac"},
        {"process.allocs_per_run", ratio(c("process.allocs_det"), runs_det),
         "count"},
        {"process.alloc_bytes_per_run",
         ratio(c("process.alloc_bytes_det"), runs_det), "B"},
        {"process.invol_ctx_switches", static_cast<double>(invol_ctx_switches),
         "count"},
        {"profiler.profile_ms_p50", percentile(profile_ms, 50.0), "ms"},
        {"profiler.profile_ms_tail",
         percentile(profile_ms, tailPercentile(profile_ms.size())), "ms"},
        {"profiler.lois_per_campaign", ratio(c("profiler.lois"), sets),
         "count"},
        {"profiler.loi_yield", ratio(c("profiler.loi_yield_sum"), sets),
         "ratio"},
        {"profiler.stitch_share", stitch_share, "frac"},
        {"profiler.share",
         ratio(selfOf(layer::kProfiler) * stitch_share, traced_s), "frac"},
        {"binning.golden_frac", ratio(c("binning.golden_sum"), sets), "frac"},
        {"recorded_campaign.record_ms",
         percentile(ctx.samples("recorded_campaign.record_ms"), 50.0), "ms"},
        {"recorded_campaign.restitch_us_p50", percentile(restitch_us, 50.0),
         "us"},
        {"recorded_campaign.restitch_us_tail",
         percentile(restitch_us, tailPercentile(restitch_us.size())), "us"},
        {"recorded_campaign.points_per_s",
         ratio(c("recorded_campaign.points"),
               c("recorded_campaign.restitch_s")),
         "1/s"},
        {"recorded_campaign.share",
         ratio(selfOf(layer::kRecorded), traced_s), "frac"},
        {"recorded_campaign.record_share",
         ratio(c("recorded_campaign.record_s"), traced_s), "frac"},
        {"codec.encode_mb_per_s",
         ratio(c("codec.bytes") / 1e6, c("codec.encode_s")), "MB/s"},
        {"codec.decode_mb_per_s",
         ratio(c("codec.bytes") / 1e6, c("codec.decode_s")), "MB/s"},
        {"codec.bytes_per_set", ratio(c("codec.bytes"), c("codec.sets")),
         "B"},
        {"campaign_cache.hit_ratio",
         ratio(hits, hits + c("campaign_cache.misses")), "frac"},
        {"campaign_cache.memory_hits", c("campaign_cache.memory_hits"),
         "count"},
        {"campaign_cache.disk_hits", c("campaign_cache.disk_hits"), "count"},
        {"campaign_cache.misses", c("campaign_cache.misses"), "count"},
        {"campaign_cache.disk_bytes_read", c("campaign_cache.disk_bytes_read"),
         "B"},
        {"campaign_cache.disk_bytes_written",
         c("campaign_cache.disk_bytes_written"), "B"},
        {"campaign_cache.store_failures", c("campaign_cache.store_failures"),
         "count"},
        {"campaign_cache.corrupt_misses", c("campaign_cache.corrupt_misses"),
         "count"},
        {"campaign_cache.lookup_us_p50",
         percentile(ctx.samples("campaign_cache.lookup_us"), 50.0), "us"},
        {"campaign_cache.disk_lookup_us_p50",
         percentile(ctx.samples("campaign_cache.disk_lookup_us"), 50.0),
         "us"},
        {"campaign_cache.share", ratio(selfOf(layer::kCache), traced_s),
         "frac"},
        {"worker_fleet.remote_specs", c("worker_fleet.remote_specs"),
         "count"},
        {"worker_fleet.pulls", c("worker_fleet.pulls"), "count"},
        {"worker_fleet.workers_spawned", c("worker_fleet.workers_spawned"),
         "count"},
        {"worker_fleet.fallback_specs", c("worker_fleet.fallback_specs"),
         "count"},
        {"worker_fleet.retried_specs", c("worker_fleet.retried_specs"),
         "count"},
        {"worker_fleet.worker_failures", c("worker_fleet.worker_failures"),
         "count"},
        {"worker_fleet.dispatch_overhead_ms_per_spec",
         ratio(c("worker_fleet.overhead_ms"),
               c("worker_fleet.overhead_specs")),
         "ms"},
        {"worker_fleet.share", ratio(selfOf(layer::kFleet), traced_s),
         "frac"},
        {"bench.share", ratio(selfOf(layer::kBench), traced_s), "frac"},
        {"trace.overhead_frac",
         pass_untraced > 0.0 ? pass_traced / pass_untraced - 1.0 : 0.0,
         "frac"},
        {"trace.spans", static_cast<double>(spans), "count"},
    };
}

void
printLayerTable(const Ctx& ctx)
{
    double traced_s = 0.0;
    for (const auto& r : ctx.rounds())
        traced_s += r.traced ? r.timed_s : 0.0;
    std::printf("layer self time over %.3f s of traced requests:\n",
                traced_s);
    std::printf("  %-20s %12s %8s\n", "layer", "self_s", "share");
    for (const auto& [name, s] : tracer().requestSelfSeconds())
        std::printf("  %-20s %12.6f %8.4f\n", name.c_str(), s,
                    ratio(s, traced_s));
}

void
printJson(const Ctx& ctx, const std::vector<Metric>& ms)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                ctx.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ctx.attempted()),
                static_cast<unsigned long long>(
                    std::min(ctx.failed(), ctx.attempted())));
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
run(const Options& opts)
{
    const std::int64_t start = nowNs();
    auto workload = makeWorkload(opts.workload);
    if (!workload)
        usage(("unknown workload " + opts.workload).c_str());
    std::filesystem::create_directories(kOutDir);
    Ctx ctx(opts);

    workload->prepare(ctx);
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
        const std::int64_t t0 = nowNs();
        workload->setup(ctx);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    workload->canary(ctx);

    const double children0 = cpuSeconds(RUSAGE_CHILDREN);
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    double timed_s = 0.0;
    for (std::size_t r = 0; r < 2 || timed_s < opts.seconds; ++r) {
        if (static_cast<double>(nowNs() - start) / 1e9 > kWallCapS)
            break;
        const bool traced = opts.trace && r % 2 == 1;
        setAllocCounting(traced);
        ctx.beginRound(r, traced);
        {
            Scope root(traced ? "round (traced)" : "round",
                       layer::kWorkload);
            workload->round(r, ctx);
        }
        ctx.endRound();
        setAllocCounting(false);
        timed_s += ctx.rounds().back().timed_s;
    }
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    workload->finish(ctx);
    const double children_s = cpuSeconds(RUSAGE_CHILDREN) - children0;

    double untraced_cpu = 0.0, untraced_wall = 0.0;
    std::size_t untraced_rounds = 0;
    for (const auto& r : ctx.rounds()) {
        if (!r.traced) {
            untraced_cpu += r.cpu_s;
            untraced_wall += r.timed_s;
            ++untraced_rounds;
        }
    }
    // Fleet workers run only inside timed requests and the short warm-up,
    // so all their CPU counts against the untraced wall of a plain run.
    const double cpu_total = untraced_cpu + (opts.trace ? 0.0 : children_s);
    const Pass pass = slotPass(ctx.slots(false), [&](std::uint64_t slot) {
        return workload->batchOf(slot);
    });
    // CPU per pass: the run's CPU per timed second times the pass's
    // seconds (both speeds of the host inflate CPU and wall alike).
    const double cpu_s = ratio(cpu_total, untraced_wall) * pass.seconds;
    const auto e2e = endToEnd(pass, median(setups), cpu_s);
    std::printf("workload %s seed %llu: %zu untraced rounds, %.3f s timed "
                "wall, %.3f s cpu (fleet workers %.3f s); pass %.3f s "
                "over %zu slots; tail = p%g of %zu batches\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), untraced_rounds,
                untraced_wall, untraced_cpu, children_s, pass.seconds,
                ctx.slots(false).size(), kBatchTailPercentile,
                pass.batch_ms.size());
    std::printf("failed_frac %.6g (%llu of %llu operations)\n",
                ratio(double(ctx.failed()), double(ctx.attempted())),
                static_cast<unsigned long long>(ctx.failed()),
                static_cast<unsigned long long>(ctx.attempted()));
    printMetrics(e2e);
    if (!opts.trace) {
        printJson(ctx, e2e);
        return 0;
    }
    const std::string path = std::string(kOutDir) + "/trace-" +
                             opts.workload + "-" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer().writeChrome(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else
        std::printf("chrome trace: %s\n", path.c_str());
    printLayerTable(ctx);
    const auto layers = perLayer(ctx, ru1.ru_nivcsw - ru0.ru_nivcsw);
    printMetrics(layers);
    printJson(ctx, layers);
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    const auto opts = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
