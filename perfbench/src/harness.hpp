#ifndef PERFBENCH_HARNESS_HPP_
#define PERFBENCH_HARNESS_HPP_

/**
 * @file
 * Closed-loop harness shared by the workloads: timed requests, output
 * checks, per-round accounting and the per-layer tallies of traced
 * passes.
 *
 * Every round sends the same sequence of request *slots*.  In the
 * in-process workloads slot k is the same request in every round (the
 * same spec and seed, or the same sweep point of the same recording),
 * so its repetitions do identical work and must deliver identical bits.
 * On a small shared host one thread of identical work runs at two
 * speeds up to 1.8x apart (CPU time slows with wall time, so it is the
 * core, not the scheduler), switching every fraction of a second to
 * several seconds, in proportions that drift over minutes.  Any
 * percentile of the repetitions but the lowest measures that mixture,
 * so a slot's time is its fastest repetition (slotTime): the code's
 * speed when the host lets it run, which is what a change to the code
 * can move.  A pass is one request per slot, its time the sum of those
 * slot times, its work the slots' mean work.  Rates are work per pass
 * second.  Latencies are percentiles over the pass's batches: a batch
 * is a group of slots (Workload::batchOf), its time the sum of theirs.
 *
 * An untraced run feeds every round to those figures.  A traced run
 * executes even rounds untraced and odd rounds traced; comparing the
 * two best passes gives the tracing overhead.  Deterministic work
 * counts come from round 1 alone, so they repeat exactly for one seed
 * whatever the host speed.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <exception>

#include "fingrav/profiler.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one bit in the N-th delivered result (0-based); -1 = never.
     *  The self-test uses it to show the output check is live. */
    long flip_result = -1;
    std::string argv0;
};

/** Directory for trace files and the fleet's cache store. */
inline constexpr const char* kOutDir = ".bench_out";

/** Seconds of user+sys CPU for `who` (RUSAGE_SELF / RUSAGE_CHILDREN). */
double cpuSeconds(int who);

/** Deterministic per-spec seed from the run seed, round and slot. */
std::uint64_t specSeed(std::uint64_t seed, std::uint64_t round,
                       std::uint64_t slot);

/** 64-bit digest over every field identicalProfileSets compares. */
std::uint64_t digest(const fingrav::core::ProfileSet& set);

/**
 * Structural output check: columns consistent, every power value finite
 * and positive, golden runs inside the examined runs.  `complete` also
 * demands the golden runs and SSP profile a full campaign produces.
 */
bool wellFormed(const fingrav::core::ProfileSet& set,
                const std::string& label, bool complete);

/** Nearest-rank percentile of `v` (sorted copy), p in [0, 100]. */
double percentile(std::vector<double> v, double p);

/**
 * Linearly interpolated percentile of `v`, p in [0, 100].  Batch
 * latencies use it: over a few batches a nearest-rank percentile jumps
 * between order statistics.
 */
double interpolatedPercentile(std::vector<double> v, double p);

/** The highest of p50/p75/p90/p95/p99/p99.9 with >= 10 samples above. */
double tailPercentile(std::size_t n);

/** One request slot's repetitions (see file comment). */
struct SlotTally {
    std::vector<double> ms;  ///< one per repetition
    double campaigns = 0.0;
    double runs = 0.0;
    double points = 0.0;
};

/** The time that stands for a slot: its fastest repetition. */
double slotTime(const SlotTally& s);

/**
 * The batch latency tail.  Fixed, so a faster run reports the same
 * percentile; a workload has 3 to 20 batches, too few for a percentile
 * with ten batches beyond it.
 */
inline constexpr double kBatchTailPercentile = 90.0;

/** One pass over a set of slots at each slot's slotTime. */
struct Pass {
    double seconds = 0.0;  ///< sum of the slot times
    double campaigns = 0.0;
    double runs = 0.0;
    double points = 0.0;
    std::vector<double> batch_ms;  ///< one per batch: its slots' time
};

/** The pass over `slots`, grouped into batches by `batch_of(slot)`. */
Pass slotPass(const std::map<std::uint64_t, SlotTally>& slots,
              const std::function<std::uint64_t(std::uint64_t)>& batch_of);

/** Wall and CPU time of one round's timed requests. */
struct RoundTally {
    bool traced = false;
    double timed_s = 0.0;
    double cpu_s = 0.0;
};

class Ctx {
  public:
    explicit Ctx(Options opts) : opts_(std::move(opts)) {}

    const Options& opts() const { return opts_; }

    /** True while the current round is a traced one. */
    bool traced() const { return round_.traced; }

    /** True in the round whose work counts must repeat exactly. */
    bool countRound() const { return round_.traced && round_index_ == 1; }

    void beginRound(std::size_t index, bool traced);
    void endRound();

    /**
     * Run one timed request: wall and CPU time go to the round, the
     * latency to the request samples, and the span to the trace.
     * Returns the request's wall milliseconds.  An exception marks the
     * request failed and is swallowed so the loop continues.
     */
    template <typename F>
    double
    request(const char* name, std::uint64_t slot, F&& body)
    {
        ++attempted_;
        const double cpu0 = cpuSeconds(RUSAGE_SELF);
        const std::int64_t t0 = nowNs();
        bool threw = false;
        {
            Scope span(name, layer::kBench, ++request_id_);
            try {
                body();
            } catch (const std::exception& e) {
                threw = true;
                noteFailure(std::string(name) + " threw: " + e.what());
            }
        }
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;
        round_.timed_s += ms / 1e3;
        round_.cpu_s += cpuSeconds(RUSAGE_SELF) - cpu0;
        SlotTally& s = slots_[round_.traced ? 1 : 0][slot];
        s.ms.push_back(ms);
        slot_ = &s;
        slot_key_ = slot;
        if (threw)
            ++failed_;
        return ms;
    }

    /** Record delivered results (counts only; checks are separate). */
    void delivered(const fingrav::core::ProfileSet& set, bool campaign);
    /** One answered point (a campaign, restitch or autotune). */
    void addPoint() { slot_->points += 1.0; }
    /** A completed campaign that delivers no ProfileSet (a recording). */
    void addCampaign() { slot_->campaigns += 1.0; }

    /**
     * Hand every delivered result through here before checking it: the
     * self-test's bit flip lands on the chosen one.
     */
    void maybeFlip(fingrav::core::ProfileSet& set);

    /**
     * Count an output check made outside the timed region.  A failed
     * check on an already-counted request marks that request failed.
     */
    void check(bool ok, const std::string& what);
    /** A check that is an operation of its own (canaries). */
    void checkOperation(bool ok, const std::string& what);

    /**
     * The latest request's result must equal the one its slot delivered
     * first (slots repeat identical work): an output check.
     */
    void sameAsFirst(std::uint64_t digest, const std::string& what);

    /** Fold a round's results into its digest line. */
    void mixDigest(std::uint64_t d);

    // -- per-layer tallies (traced rounds) ------------------------------
    /** Add to a counter; only in the count round when `deterministic`. */
    void add(const std::string& name, double v, bool deterministic = false);
    void sample(const std::string& name, double v);
    double counter(const std::string& name) const;
    const std::vector<double>& samples(const std::string& name) const;

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<RoundTally>& rounds() const { return rounds_; }
    /** Slots of untraced (false) or traced (true) rounds. */
    const std::map<std::uint64_t, SlotTally>& slots(bool traced) const
    {
        return slots_[traced ? 1 : 0];
    }

  private:
    static void noteFailure(const std::string& what);

    Options opts_;
    RoundTally round_;
    std::size_t round_index_ = 0;
    std::uint64_t round_digest_ = 0;
    std::vector<RoundTally> rounds_;
    std::map<std::uint64_t, SlotTally> slots_[2];
    SlotTally* slot_ = nullptr;  ///< the latest request's slot
    std::uint64_t slot_key_ = 0;
    std::map<std::uint64_t, std::uint64_t> first_digest_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t request_id_ = 0;
    long results_seen_ = 0;
    std::map<std::string, double> counters_;
    std::map<std::string, std::vector<double>> samples_;
};

/** One benchmark workload; see workloads.cpp for the four shapes. */
class Workload {
  public:
    virtual ~Workload() = default;

    /**
     * Everything before the first timed request.  Called several times
     * per run (setup_s is the median); each call replaces the previous
     * state.  Untimed preparation belongs in prepare().
     */
    virtual void setup(Ctx& ctx) = 0;

    /** Untimed one-time preparation before the first setup(). */
    virtual void prepare(Ctx&) {}

    /** Fixed-spec check against digests recorded at the benchmark's
     *  introduction (untimed). */
    virtual void canary(Ctx& ctx) = 0;

    /** One round of closed-loop requests plus their untimed checks. */
    virtual void round(std::size_t index, Ctx& ctx) = 0;

    /** Release resources (reap workers) before the final accounting. */
    virtual void finish(Ctx&) {}

    /**
     * The batch a slot belongs to; batch latencies sum their slots.
     * By default every slot is a batch of its own.
     */
    virtual std::uint64_t batchOf(std::uint64_t slot) const { return slot; }
};

/** The named workload, or null. */
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HPP_
