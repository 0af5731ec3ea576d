/**
 * @file
 * Campaign-cache benchmark: cold execution vs warm content-addressed
 * replay, with bit-identity verification.
 *
 * Two scenarios quantify the memoization leg of the scaling story (the
 * fourth, after event-driven stepping, parallel node stepping, and
 * multi-process execution): re-running a sweep whose results are
 * already in the store must cost retrieval, not simulation.
 *
 *  1. warm_sweep — the Fig. 10 scenario set executed cold (populating
 *     a fresh store) and again warm through the same cache instance
 *     (memory-tier hits).  The warm pass must perform ZERO
 *     re-executions (cache stats gate: no new misses or stores) and
 *     every warm ProfileSet must match its cold counterpart bitwise —
 *     either violation is a hard failure in both modes.  The speedup
 *     floor (>= 20x; retrieval is decode-only) is enforced in full
 *     mode.
 *
 *  2. disk_tier — a fresh cache instance over the same store directory
 *     (empty memory tier, simulating a new process) replays the sweep
 *     from disk blobs alone.  Bit-identity against the cold pass is
 *     again a hard failure; the store must survey fully valid.  It also
 *     reports the median latency of one disk hit: a memory-less cache
 *     instance looks each spec up several times, so every lookup reads,
 *     verifies and decodes its blob.  `disk_hit_us_p50` covers the
 *     sweep's small blobs, `large_disk_hit_us_p50` one AG-1GB result at
 *     its Table I budget (about 0.95 MB).  Both are warn-only in the
 *     regression gate.
 *
 * Results go to BENCH_cache.json via tools/bench_json.hpp; CI feeds the
 * file through tools/bench_regression.py (docs/PERFORMANCE.md).
 *
 * Usage: bench_cache [--smoke] [--out PATH]
 *   --smoke   reduced run counts (CI); floors reported, not enforced
 *   --out     output JSON path (default BENCH_cache.json)
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "sim/machine_config.hpp"
#include "support/statistics.hpp"
#include "tests/test_fixtures.hpp"
#include "tools/bench_json.hpp"

namespace fc = fingrav::core;
namespace tools = fingrav::tools;

namespace {

double
wallMs(const std::chrono::steady_clock::time_point& t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool
allIdentical(const std::vector<fc::ProfileSet>& a,
             const std::vector<fc::ProfileSet>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!fc::identicalProfileSets(a[i], b[i]))
            return false;
    return true;
}

/**
 * Median microseconds of one disk hit.  The memory tier is disabled, so
 * each of `rounds` passes over `specs` reads, verifies and decodes
 * every blob; the median keeps one slow syscall from setting the
 * figure.  `ok` turns false on a miss or a result that differs from
 * `expected`.
 */
double
diskHitUs(const std::string& dir, const std::vector<fc::ScenarioSpec>& specs,
          const std::vector<fc::ProfileSet>& expected, int rounds,
          double& mean_blob_bytes, bool& ok)
{
    fc::CacheOptions opts;
    opts.dir = dir;
    opts.memory_capacity_bytes = 0;
    fc::CampaignCache probe(opts);
    const auto cfg = fingrav::sim::mi300xConfig();
    std::vector<double> hit_us;
    bool identical = true;
    for (int r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto t = std::chrono::steady_clock::now();
            const auto hit = probe.lookup(specs[i], cfg);
            hit_us.push_back(wallMs(t) * 1.0e3);
            identical = identical && hit.has_value() &&
                        fc::identicalProfileSets(*hit, expected[i]);
        }
    }
    const auto stats = probe.stats();
    if (!identical || stats.disk_hits != hit_us.size()) {
        std::cerr << "FAIL: disk-hit probe missed the store or diverged ("
                  << stats.disk_hits << "/" << hit_us.size()
                  << " disk hits)\n";
        ok = false;
    }
    mean_blob_bytes = stats.disk_hits > 0
                          ? static_cast<double>(stats.disk_bytes_read) /
                                static_cast<double>(stats.disk_hits)
                          : 0.0;
    return fingrav::support::median(hit_us);
}

bool
runCacheSweep(tools::BenchReport& report, bool smoke)
{
    const auto specs = fingrav::testing::fig10Specs(smoke ? 6 : 24);
    fingrav::testing::TempDir store;

    fc::CacheOptions copts;
    copts.dir = store.path();
    auto cache = std::make_shared<fc::CampaignCache>(copts);

    // Serial runner on both sides so the speedup isolates memoization,
    // not thread-pool fan-out.
    fc::CampaignRunner runner(1);
    runner.attachCache(cache);

    const auto t0 = std::chrono::steady_clock::now();
    const auto cold = runner.run(specs);
    const double cold_ms = wallMs(t0);
    const auto after_cold = cache->stats();

    const auto t1 = std::chrono::steady_clock::now();
    const auto warm = runner.run(specs);
    const double warm_ms = wallMs(t1);
    const auto after_warm = cache->stats();

    const bool identical = allIdentical(cold, warm);
    const bool zero_reexec =
        after_warm.misses == after_cold.misses &&
        after_warm.stores == after_cold.stores &&
        after_warm.hits() == after_cold.hits() + specs.size();
    const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

    auto& s = report.scenario("warm_sweep");
    s.note("description",
           "Fig. 10 sweep cold (execute + populate) vs warm (memory-tier "
           "replay) through one cache instance");
    s.metric("specs", static_cast<std::int64_t>(specs.size()));
    s.metric("cold_wall_ms", cold_ms);
    s.metric("warm_wall_ms", warm_ms);
    s.metric("speedup", speedup);
    s.metric("memory_hits", static_cast<std::int64_t>(after_warm.memory_hits));
    s.metric("stores", static_cast<std::int64_t>(after_warm.stores));
    s.metric("disk_bytes_written",
             static_cast<std::int64_t>(after_warm.disk_bytes_written));
    s.note("bit_identical", identical ? "yes" : "NO");
    s.note("zero_reexecutions", zero_reexec ? "yes" : "NO");

    std::cout << "warm_sweep: cold " << cold_ms << " ms vs warm " << warm_ms
              << " ms over " << specs.size() << " specs, speedup " << speedup
              << "x, bit-identical: " << (identical ? "yes" : "NO")
              << ", zero re-executions: " << (zero_reexec ? "yes" : "NO")
              << "\n";

    bool ok = true;
    if (!identical) {
        std::cerr << "FAIL: warm ProfileSets diverged from cold execution\n";
        ok = false;
    }
    if (!zero_reexec) {
        std::cerr << "FAIL: warm pass re-executed or re-stored specs\n";
        ok = false;
    }
    if (!smoke && speedup < 20.0) {
        std::cerr << "FAIL: warm-cache speedup " << speedup
                  << "x below the 20x floor\n";
        ok = false;
    }

    // Scenario 2: a fresh instance over the same directory — the memory
    // tier is empty, so every hit decodes a disk blob (new process).
    auto fresh = std::make_shared<fc::CampaignCache>(copts);
    fc::CampaignRunner disk_runner(1);
    disk_runner.attachCache(fresh);

    const auto t2 = std::chrono::steady_clock::now();
    const auto from_disk = disk_runner.run(specs);
    const double disk_ms = wallMs(t2);
    const auto disk_stats = fresh->stats();
    const auto scan = fc::CampaignCache::scanDir(copts.dir);

    const bool disk_identical = allIdentical(cold, from_disk);
    const bool all_from_disk = disk_stats.disk_hits == specs.size() &&
                               disk_stats.misses == 0;
    const double disk_speedup = disk_ms > 0.0 ? cold_ms / disk_ms : 0.0;

    auto& d = report.scenario("disk_tier");
    d.note("description",
           "fresh cache instance over the populated store: process-restart "
           "replay from disk blobs");
    d.metric("specs", static_cast<std::int64_t>(specs.size()));
    d.metric("disk_wall_ms", disk_ms);
    d.metric("replay_speedup", disk_speedup);
    d.metric("disk_hits", static_cast<std::int64_t>(disk_stats.disk_hits));
    d.metric("disk_bytes_read",
             static_cast<std::int64_t>(disk_stats.disk_bytes_read));
    d.metric("store_entries", static_cast<std::int64_t>(scan.entries));
    d.metric("store_valid_entries",
             static_cast<std::int64_t>(scan.valid_entries));
    d.note("bit_identical", disk_identical ? "yes" : "NO");
    d.note("all_from_disk", all_from_disk ? "yes" : "NO");

    std::cout << "disk_tier: replay " << disk_ms << " ms ("
              << disk_stats.disk_hits << " disk hits, "
              << disk_stats.disk_bytes_read << " B read), speedup vs cold "
              << disk_speedup << "x, bit-identical: "
              << (disk_identical ? "yes" : "NO") << "\n";

    if (!disk_identical) {
        std::cerr << "FAIL: disk-tier ProfileSets diverged from cold "
                     "execution\n";
        ok = false;
    }
    if (!all_from_disk) {
        std::cerr << "FAIL: disk-tier replay missed the store ("
                  << disk_stats.disk_hits << "/" << specs.size()
                  << " disk hits, " << disk_stats.misses << " misses)\n";
        ok = false;
    }

    // Per-hit latency, on the sweep's blobs and on one large Table I
    // result (AG-1GB at its full run budget: the kind of blob a repeated
    // campaign re-reads), stored in a store of its own.
    double blob_bytes = 0.0;
    const double hit_us_p50 =
        diskHitUs(copts.dir, specs, cold, smoke ? 5 : 20, blob_bytes, ok);
    fingrav::testing::TempDir large_store;
    fc::ScenarioSpec large;
    large.label = "AG-1GB";
    large.seed = 907;
    const std::vector<fc::ProfileSet> large_set = {
        fc::CampaignRunner::runOne(large)};
    {
        fc::CacheOptions large_opts;
        large_opts.dir = large_store.path();
        fc::CampaignCache writer(large_opts);
        writer.store(large, fingrav::sim::mi300xConfig(), large_set.front());
    }
    double large_bytes = 0.0;
    const double large_us_p50 = diskHitUs(
        large_store.path(), {large}, large_set, smoke ? 15 : 60, large_bytes,
        ok);
    d.metric("disk_hit_us_p50", hit_us_p50);
    d.metric("disk_hit_blob_bytes", blob_bytes);
    d.metric("large_disk_hit_us_p50", large_us_p50);
    d.metric("large_disk_hit_blob_bytes", large_bytes);
    std::cout << "disk_tier: one disk hit " << hit_us_p50 << " us median ("
              << blob_bytes << " B mean blob), large " << large_us_p50
              << " us (" << large_bytes << " B blob)\n";
    if (scan.valid_entries != scan.entries || scan.entries != specs.size()) {
        std::cerr << "FAIL: store survey " << scan.valid_entries << "/"
                  << scan.entries << " valid for " << specs.size()
                  << " specs\n";
        ok = false;
    }
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_cache.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_cache [--smoke] [--out PATH]\n";
            return 2;
        }
    }

    tools::BenchReport report("cache");
    bool ok = runCacheSweep(report, smoke);

    if (!report.write(out_path)) {
        std::cerr << "bench_cache: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    if (!ok) {
        std::cerr << "bench_cache: FAILED (divergence, re-execution, or "
                     "speedup floor)\n";
        return 1;
    }
    return 0;
}
