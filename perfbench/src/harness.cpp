#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace fc = fingrav::core;

double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t
specSeed(std::uint64_t seed, std::uint64_t round, std::uint64_t slot)
{
    // splitmix64 over the packed coordinates.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (round << 20) + slot +
                      0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) | 1u;
}

namespace {

/** FNV-1a over 64-bit words (the tail zero-padded): every bit of the
 *  input reaches the digest at an eighth of the byte-wise cost. */
struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (; n > 0; b += 8, n = n > 8 ? n - 8 : 0) {
            std::uint64_t w = 0;
            std::memcpy(&w, b, n < 8 ? n : 8);
            h ^= w;
            h *= 0x100000001b3ull;
        }
    }
    template <typename T>
    void
    value(const T& v)
    {
        bytes(&v, sizeof(v));
    }
    template <typename T>
    void
    column(const std::vector<T>& v)
    {
        value(v.size());
        bytes(v.data(), v.size() * sizeof(T));
    }
};

void
mixProfile(Fnv& f, const fc::PowerProfile& p)
{
    f.bytes(p.label().data(), p.label().size());
    f.value(static_cast<int>(p.kind()));
    f.column(p.toiUs());
    f.column(p.toiFrac());
    f.column(p.runTimeUs());
    f.column(p.gpuTimestamps());
    f.column(p.runIndices());
    f.column(p.execIndices());
    f.column(p.contendedWords());
    for (auto rail : {fc::Rail::kTotal, fc::Rail::kXcd, fc::Rail::kIod,
                      fc::Rail::kHbm})
        f.column(p.railColumn(rail));
}

}  // namespace

std::uint64_t
digest(const fc::ProfileSet& s)
{
    Fnv f;
    f.bytes(s.label.data(), s.label.size());
    f.value(s.measured_exec_time.nanos());
    f.value(s.guidance.runs);
    f.value(s.guidance.binning_margin);
    f.value(s.runs_executed);
    f.value(s.binning.bin_center.nanos());
    f.column(s.binning.golden_runs);
    f.value(s.binning.total_runs);
    f.value(s.sse_exec_index);
    f.value(s.ssp_exec_index);
    f.value(s.execs_per_run);
    f.value(s.ssp_exec_time.nanos());
    f.value(s.loi_target);
    f.value(s.read_delay_us);
    f.value(s.drift_ppm);
    mixProfile(f, s.sse);
    mixProfile(f, s.ssp);
    mixProfile(f, s.timeline);
    return f.h;
}

bool
wellFormed(const fc::ProfileSet& s, const std::string& label, bool complete)
{
    if (s.label != label || s.runs_executed == 0 ||
        s.binning.total_runs > s.runs_executed ||
        s.binning.golden_runs.size() > s.binning.total_runs)
        return false;
    for (std::size_t run : s.binning.golden_runs) {
        if (run >= s.runs_executed)
            return false;
    }
    for (const fc::PowerProfile* p : {&s.sse, &s.ssp, &s.timeline}) {
        const std::size_t n = p->size();
        if (p->toiUs().size() != n || p->runIndices().size() != n)
            return false;
        for (double w : p->railColumn(fc::Rail::kTotal)) {
            if (!std::isfinite(w) || w <= 0.0)
                return false;
        }
    }
    // The SSE profile may legitimately be empty: a kernel of a few
    // microseconds rarely lines its one SSE execution up with a window.
    if (complete && (s.ssp.empty() || s.binning.golden_runs.empty()))
        return false;
    return true;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(v.size() - 1,
                                  static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

double
interpolatedPercentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
tailPercentile(std::size_t n)
{
    double best = 50.0;
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
        const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
        if (static_cast<double>(n) - rank >= 10.0)
            best = p;
    }
    return best;
}

void
Ctx::beginRound(std::size_t index, bool traced)
{
    round_ = {};
    round_.traced = traced;
    round_index_ = index;
    round_digest_ = 0xcbf29ce484222325ull;
    tracer().enable(traced);
}

void
Ctx::endRound()
{
    tracer().enable(false);
    std::printf("digest %s seed=%llu round=%zu %016llx\n",
                opts_.workload.c_str(),
                static_cast<unsigned long long>(opts_.seed), round_index_,
                static_cast<unsigned long long>(round_digest_));
    rounds_.push_back(round_);
}

void
Ctx::delivered(const fc::ProfileSet& set, bool campaign)
{
    slot_->runs += static_cast<double>(set.runs_executed);
    if (campaign)
        addCampaign();
}

double
slotTime(const SlotTally& s)
{
    return s.ms.empty() ? 0.0 : *std::min_element(s.ms.begin(), s.ms.end());
}

Pass
slotPass(const std::map<std::uint64_t, SlotTally>& slots,
         const std::function<std::uint64_t(std::uint64_t)>& batch_of)
{
    Pass p;
    std::map<std::uint64_t, double> batches;
    for (const auto& [key, s] : slots) {
        const double reps = static_cast<double>(s.ms.size());
        const double ms = slotTime(s);
        p.seconds += ms / 1e3;
        p.campaigns += s.campaigns / reps;
        p.runs += s.runs / reps;
        p.points += s.points / reps;
        batches[batch_of(key)] += ms;
    }
    for (const auto& [key, ms] : batches)
        p.batch_ms.push_back(ms);
    return p;
}

void
Ctx::maybeFlip(fc::ProfileSet& set)
{
    if (results_seen_++ != opts_.flip_result)
        return;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &set.read_delay_us, sizeof(bits));
    bits ^= 1u;
    std::memcpy(&set.read_delay_us, &bits, sizeof(bits));
}

void
Ctx::noteFailure(const std::string& what)
{
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void
Ctx::check(bool ok, const std::string& what)
{
    if (!ok) {
        ++failed_;
        noteFailure(what);
    }
}

void
Ctx::checkOperation(bool ok, const std::string& what)
{
    ++attempted_;
    check(ok, what);
}

void
Ctx::sameAsFirst(std::uint64_t digest, const std::string& what)
{
    const auto [it, fresh] = first_digest_.emplace(slot_key_, digest);
    check(fresh || it->second == digest, what + " repeats bit for bit");
}

void
Ctx::mixDigest(std::uint64_t d)
{
    round_digest_ = (round_digest_ ^ d) * 0x100000001b3ull;
}

void
Ctx::add(const std::string& name, double v, bool deterministic)
{
    if (!round_.traced || (deterministic && !countRound()))
        return;
    counters_[name] += v;
}

void
Ctx::sample(const std::string& name, double v)
{
    if (round_.traced)
        samples_[name].push_back(v);
}

double
Ctx::counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

const std::vector<double>&
Ctx::samples(const std::string& name) const
{
    static const std::vector<double> kEmpty;
    const auto it = samples_.find(name);
    return it == samples_.end() ? kEmpty : it->second;
}

}  // namespace perfbench
