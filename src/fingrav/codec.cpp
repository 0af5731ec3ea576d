#include "fingrav/codec.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <type_traits>
#include <utility>

#include "support/logging.hpp"

namespace fingrav::core::codec {

namespace {

using fingrav::support::Duration;

/** Hard cap on string/vector lengths: a corrupted length field must not
 *  turn into a multi-gigabyte allocation before the checksum/bounds
 *  checks have a chance to fire. */
constexpr std::uint64_t kMaxElementCount = 1ULL << 28;

}  // namespace

std::uint64_t
checkedCount(std::uint64_t n, const char* what)
{
    if (n > kMaxElementCount)
        support::fatal("codec: implausible ", what, " count ", n);
    return n;
}

const char*
toString(FrameType type)
{
    switch (type) {
      case FrameType::kScenarioSpec:
        return "scenario-spec";
      case FrameType::kProfileSet:
        return "profile-set";
      case FrameType::kWorkRequest:
        return "work-request";
      case FrameType::kWorkResult:
        return "work-result";
      case FrameType::kWorkDone:
        return "work-done";
      case FrameType::kWorkerError:
        return "worker-error";
      case FrameType::kCacheEntry:
        return "cache-entry";
      case FrameType::kPing:
        return "ping";
      case FrameType::kPong:
        return "pong";
      case FrameType::kShutdown:
        return "shutdown";
    }
    return "unknown";
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

void
Encoder::u8(std::uint8_t v)
{
    bytes_.push_back(v);
}

void
Encoder::u16(std::uint16_t v)
{
    bytes_.push_back(static_cast<std::uint8_t>(v));
    bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
Encoder::u32(std::uint32_t v)
{
    for (int shift = 0; shift < 32; shift += 8)
        bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
Encoder::u64(std::uint64_t v)
{
    for (int shift = 0; shift < 64; shift += 8)
        bytes_.push_back(static_cast<std::uint8_t>(v >> shift));
}

void
Encoder::i64(std::int64_t v)
{
    u64(static_cast<std::uint64_t>(v));
}

void
Encoder::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Encoder::boolean(bool v)
{
    u8(v ? 1 : 0);
}

void
Encoder::str(const std::string& v)
{
    u32(static_cast<std::uint32_t>(v.size()));
    bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void
Encoder::duration(Duration v)
{
    i64(v.nanos());
}

void
Encoder::optU64(const std::optional<std::size_t>& v)
{
    boolean(v.has_value());
    if (v.has_value())
        u64(*v);
}

void
Encoder::optF64(const std::optional<double>& v)
{
    boolean(v.has_value());
    if (v.has_value())
        f64(*v);
}

void
Encoder::optDuration(const std::optional<Duration>& v)
{
    boolean(v.has_value());
    if (v.has_value())
        duration(*v);
}

namespace {

/** One contiguous little-endian element block (canonical bytes match the
 *  per-element writers exactly — the fast path is pure layout). */
template <typename T>
void
appendColumnBytes(std::vector<std::uint8_t>& bytes, const std::vector<T>& v)
{
    if constexpr (std::endian::native == std::endian::little) {
        const auto* raw = reinterpret_cast<const std::uint8_t*>(v.data());
        bytes.insert(bytes.end(), raw, raw + v.size() * sizeof(T));
    } else {
        for (const T x : v) {
            std::uint64_t u;
            if constexpr (std::is_same_v<T, double>)
                u = std::bit_cast<std::uint64_t>(x);
            else
                u = static_cast<std::uint64_t>(x);
            for (int shift = 0; shift < 64; shift += 8)
                bytes.push_back(static_cast<std::uint8_t>(u >> shift));
        }
    }
}

}  // namespace

void
Encoder::f64Column(const std::vector<double>& v)
{
    appendColumnBytes(bytes_, v);
}

void
Encoder::i64Column(const std::vector<std::int64_t>& v)
{
    appendColumnBytes(bytes_, v);
}

void
Encoder::u64Column(const std::vector<std::uint64_t>& v)
{
    appendColumnBytes(bytes_, v);
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

const std::uint8_t*
Decoder::need(std::size_t n)
{
    if (size_ - pos_ < n) {
        support::fatal("codec: truncated payload (need ", n, " bytes, ",
                       size_ - pos_, " left)");
    }
    const std::uint8_t* at = data_ + pos_;
    pos_ += n;
    return at;
}

std::uint8_t
Decoder::u8()
{
    return *need(1);
}

std::uint16_t
Decoder::u16()
{
    const std::uint8_t* p = need(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
Decoder::u32()
{
    const std::uint8_t* p = need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
Decoder::u64()
{
    const std::uint8_t* p = need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::int64_t
Decoder::i64()
{
    return static_cast<std::int64_t>(u64());
}

double
Decoder::f64()
{
    return std::bit_cast<double>(u64());
}

bool
Decoder::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1)
        support::fatal("codec: corrupt boolean value ", int(v));
    return v == 1;
}

std::string
Decoder::str()
{
    const std::uint64_t n = checkedCount(u32(), "string");
    const std::uint8_t* p = need(n);
    return std::string(reinterpret_cast<const char*>(p), n);
}

Duration
Decoder::duration()
{
    return Duration::nanos(i64());
}

std::optional<std::size_t>
Decoder::optU64()
{
    if (!boolean())
        return std::nullopt;
    return static_cast<std::size_t>(u64());
}

std::optional<double>
Decoder::optF64()
{
    if (!boolean())
        return std::nullopt;
    return f64();
}

std::optional<Duration>
Decoder::optDuration()
{
    if (!boolean())
        return std::nullopt;
    return duration();
}

namespace {

/** Block-read `n` little-endian elements: one bounds check, one memcpy on
 *  little-endian hosts (zero-copy of the v2 column layout). */
template <typename T>
std::vector<T>
readColumn(const std::uint8_t* p, std::size_t n)
{
    std::vector<T> out(n);
    if constexpr (std::endian::native == std::endian::little) {
        if (n > 0)
            std::memcpy(out.data(), p, n * sizeof(T));
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t u = 0;
            for (int b = 0; b < 8; ++b)
                u |= static_cast<std::uint64_t>(p[i * 8 + b]) << (8 * b);
            if constexpr (std::is_same_v<T, double>)
                out[i] = std::bit_cast<double>(u);
            else
                out[i] = static_cast<T>(u);
        }
    }
    return out;
}

}  // namespace

std::vector<double>
Decoder::f64Column(std::size_t n)
{
    return readColumn<double>(need(n * sizeof(double)), n);
}

std::vector<std::int64_t>
Decoder::i64Column(std::size_t n)
{
    return readColumn<std::int64_t>(need(n * sizeof(std::int64_t)), n);
}

std::vector<std::uint64_t>
Decoder::u64Column(std::size_t n)
{
    return readColumn<std::uint64_t>(need(n * sizeof(std::uint64_t)), n);
}

void
Decoder::expectEnd(const char* what) const
{
    if (!atEnd()) {
        support::fatal("codec: ", remaining(), " trailing bytes after ",
                       what);
    }
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

namespace {

void
encodeProfilerOptions(Encoder& enc, const ProfilerOptions& opts)
{
    enc.u64(opts.device);
    enc.optU64(opts.runs_override);
    enc.optF64(opts.margin_override);
    enc.u64(opts.sse_executions);
    enc.u64(opts.timing_reps);
    enc.duration(opts.min_delay);
    enc.duration(opts.max_delay);
    enc.u8(static_cast<std::uint8_t>(opts.sync_mode));
    enc.boolean(opts.binning);
    enc.boolean(opts.collect_extra_runs);
    enc.f64(opts.max_extra_run_factor);
    enc.f64(opts.stability_eps);
    enc.duration(opts.logger_window);
    enc.optDuration(opts.target_bin);
}

ProfilerOptions
decodeProfilerOptions(Decoder& dec)
{
    ProfilerOptions opts;
    opts.device = dec.u64();
    opts.runs_override = dec.optU64();
    opts.margin_override = dec.optF64();
    opts.sse_executions = dec.u64();
    opts.timing_reps = dec.u64();
    opts.min_delay = dec.duration();
    opts.max_delay = dec.duration();
    const std::uint8_t mode = dec.u8();
    if (mode > static_cast<std::uint8_t>(SyncMode::kCoarseAlign))
        support::fatal("codec: invalid sync mode ", int(mode));
    opts.sync_mode = static_cast<SyncMode>(mode);
    opts.binning = dec.boolean();
    opts.collect_extra_runs = dec.boolean();
    opts.max_extra_run_factor = dec.f64();
    opts.stability_eps = dec.f64();
    opts.logger_window = dec.duration();
    opts.target_bin = dec.optDuration();
    return opts;
}

void
encodeBackgroundLoad(Encoder& enc, const BackgroundLoad& load)
{
    enc.u8(static_cast<std::uint8_t>(load.kind));
    enc.str(load.kernel);
    enc.f64(load.demand);
    enc.u64(load.device);
    enc.u64(load.queue);
    enc.duration(load.offset);
    enc.duration(load.period);
    enc.f64(load.duty_cycle);
    enc.u64(load.cycles);
    enc.f64(load.jitter_sigma);
}

BackgroundLoad
decodeBackgroundLoad(Decoder& dec)
{
    BackgroundLoad load;
    const std::uint8_t kind = dec.u8();
    if (kind > static_cast<std::uint8_t>(BackgroundKind::kFabricDemand))
        support::fatal("codec: invalid background kind ", int(kind));
    load.kind = static_cast<BackgroundKind>(kind);
    load.kernel = dec.str();
    load.demand = dec.f64();
    load.device = dec.u64();
    load.queue = dec.u64();
    load.offset = dec.duration();
    load.period = dec.duration();
    load.duty_cycle = dec.f64();
    load.cycles = dec.u64();
    load.jitter_sigma = dec.f64();
    return load;
}

}  // namespace

void
encodeScenarioSpec(Encoder& enc, const ScenarioSpec& spec)
{
    if (spec.profile_fn) {
        support::fatal("codec: a ScenarioSpec with a custom profile_fn "
                       "cannot cross the wire (", spec.label,
                       "); run it on the in-process path");
    }
    enc.str(spec.label);
    enc.u64(spec.seed);
    encodeProfilerOptions(enc, spec.opts);
    enc.u64(spec.devices);
    enc.u32(static_cast<std::uint32_t>(spec.background.size()));
    for (const auto& load : spec.background)
        encodeBackgroundLoad(enc, load);
}

ScenarioSpec
decodeScenarioSpec(Decoder& dec)
{
    ScenarioSpec spec;
    spec.label = dec.str();
    spec.seed = dec.u64();
    spec.opts = decodeProfilerOptions(dec);
    spec.devices = dec.u64();
    const std::uint64_t loads = checkedCount(dec.u32(), "background-load");
    spec.background.reserve(loads);
    for (std::uint64_t i = 0; i < loads; ++i)
        spec.background.push_back(decodeBackgroundLoad(dec));
    return spec;
}

// ---------------------------------------------------------------------------
// ProfileSet
// ---------------------------------------------------------------------------

namespace {

/**
 * v2 columnar profile layout: label, kind, point count, then one
 * contiguous block per column in declaration order — toi_us, toi_frac,
 * run_time_us, gpu_timestamp, total_w, xcd_w, iod_w, hbm_w, run_index,
 * exec_index — and finally the packed contention bitmap, (n + 63) / 64
 * u64 words whose trailing bits past n MUST be zero (canonical form;
 * decode rejects trailing garbage).  The word count is derived from n,
 * never read off the wire.
 */
void
encodePowerProfile(Encoder& enc, const PowerProfile& profile)
{
    enc.str(profile.label());
    enc.u8(static_cast<std::uint8_t>(profile.kind()));
    enc.u32(static_cast<std::uint32_t>(profile.size()));
    enc.f64Column(profile.toiUs());
    enc.f64Column(profile.toiFrac());
    enc.f64Column(profile.runTimeUs());
    enc.i64Column(profile.gpuTimestamps());
    enc.f64Column(profile.railColumn(Rail::kTotal));
    enc.f64Column(profile.railColumn(Rail::kXcd));
    enc.f64Column(profile.railColumn(Rail::kIod));
    enc.f64Column(profile.railColumn(Rail::kHbm));
    enc.u64Column(profile.runIndices());
    enc.u64Column(profile.execIndices());
    enc.u64Column(profile.contendedWords());
}

PowerProfile
decodePowerProfile(Decoder& dec)
{
    const std::string label = dec.str();
    const std::uint8_t kind = dec.u8();
    if (kind > static_cast<std::uint8_t>(ProfileKind::kTimeline))
        support::fatal("codec: invalid profile kind ", int(kind));
    PowerProfile profile(label, static_cast<ProfileKind>(kind));
    const auto n = static_cast<std::size_t>(
        checkedCount(dec.u32(), "profile-point"));
    auto toi_us = dec.f64Column(n);
    auto toi_frac = dec.f64Column(n);
    auto run_time_us = dec.f64Column(n);
    auto gpu_timestamp = dec.i64Column(n);
    auto total_w = dec.f64Column(n);
    auto xcd_w = dec.f64Column(n);
    auto iod_w = dec.f64Column(n);
    auto hbm_w = dec.f64Column(n);
    auto run_index = dec.u64Column(n);
    auto exec_index = dec.u64Column(n);
    auto contended_words = dec.u64Column((n + 63) / 64);
    if (n % 64 != 0 && !contended_words.empty()) {
        const std::uint64_t tail_mask = ~std::uint64_t{0} << (n % 64);
        if ((contended_words.back() & tail_mask) != 0) {
            support::fatal("codec: profile contention bitmap has set bits "
                           "past the point count (non-canonical frame)");
        }
    }
    profile.adoptColumns(n, std::move(toi_us), std::move(toi_frac),
                         std::move(run_time_us), std::move(gpu_timestamp),
                         std::move(total_w), std::move(xcd_w),
                         std::move(iod_w), std::move(hbm_w),
                         std::move(run_index), std::move(exec_index),
                         std::move(contended_words));
    return profile;
}

void
encodeGuidanceEntry(Encoder& enc, const GuidanceEntry& entry)
{
    enc.duration(entry.exec_lo);
    enc.duration(entry.exec_hi);
    enc.u64(entry.runs);
    enc.duration(entry.loi_per);
    enc.f64(entry.binning_margin);
}

GuidanceEntry
decodeGuidanceEntry(Decoder& dec)
{
    GuidanceEntry entry;
    entry.exec_lo = dec.duration();
    entry.exec_hi = dec.duration();
    entry.runs = dec.u64();
    entry.loi_per = dec.duration();
    entry.binning_margin = dec.f64();
    return entry;
}

void
encodeBinningResult(Encoder& enc, const BinningResult& binning)
{
    enc.duration(binning.bin_center);
    enc.u32(static_cast<std::uint32_t>(binning.golden_runs.size()));
    for (const std::size_t run : binning.golden_runs)
        enc.u64(run);
    enc.u64(binning.total_runs);
}

BinningResult
decodeBinningResult(Decoder& dec)
{
    BinningResult binning;
    binning.bin_center = dec.duration();
    const std::uint64_t golden = checkedCount(dec.u32(), "golden-run");
    binning.golden_runs.reserve(golden);
    for (std::uint64_t i = 0; i < golden; ++i)
        binning.golden_runs.push_back(dec.u64());
    binning.total_runs = dec.u64();
    return binning;
}

}  // namespace

void
encodeProfileSet(Encoder& enc, const ProfileSet& set)
{
    enc.str(set.label);
    enc.duration(set.measured_exec_time);
    encodeGuidanceEntry(enc, set.guidance);
    enc.u64(set.runs_executed);
    encodeBinningResult(enc, set.binning);
    enc.u64(set.sse_exec_index);
    enc.u64(set.ssp_exec_index);
    enc.u64(set.execs_per_run);
    enc.duration(set.ssp_exec_time);
    enc.u64(set.loi_target);
    enc.f64(set.read_delay_us);
    enc.f64(set.drift_ppm);
    encodePowerProfile(enc, set.sse);
    encodePowerProfile(enc, set.ssp);
    encodePowerProfile(enc, set.timeline);
}

ProfileSet
decodeProfileSet(Decoder& dec)
{
    ProfileSet set;
    set.label = dec.str();
    set.measured_exec_time = dec.duration();
    set.guidance = decodeGuidanceEntry(dec);
    set.runs_executed = dec.u64();
    set.binning = decodeBinningResult(dec);
    set.sse_exec_index = dec.u64();
    set.ssp_exec_index = dec.u64();
    set.execs_per_run = dec.u64();
    set.ssp_exec_time = dec.duration();
    set.loi_target = dec.u64();
    set.read_delay_us = dec.f64();
    set.drift_ppm = dec.f64();
    set.sse = decodePowerProfile(dec);
    set.ssp = decodePowerProfile(dec);
    set.timeline = decodePowerProfile(dec);
    return set;
}

// ---------------------------------------------------------------------------
// MachineConfig (declaration order; nested params appended)
// ---------------------------------------------------------------------------

void
encodeMachineConfig(Encoder& enc, const sim::MachineConfig& cfg)
{
    enc.u64(cfg.num_xcds);
    enc.u64(cfg.cus_per_xcd);
    enc.u64(cfg.num_iods);
    enc.u64(cfg.num_hbm_stacks);
    enc.f64(cfg.peak_matrix_flops);
    enc.f64(cfg.peak_vector_flops);
    enc.f64(cfg.hbm_bandwidth);
    enc.f64(cfg.llc_bandwidth);
    enc.i64(cfg.llc_capacity);
    enc.i64(cfg.l2_capacity_per_xcd);
    enc.i64(cfg.hbm_capacity);
    enc.u64(cfg.node_gpus);
    enc.u64(cfg.fabric_links);
    enc.f64(cfg.fabric_link_bandwidth);
    enc.f64(cfg.boost_frequency_hz);
    enc.f64(cfg.nominal_frequency_hz);
    enc.f64(cfg.idle_frequency_hz);
    enc.duration(cfg.timestamp_tick);
    enc.f64(cfg.gpu_clock_drift_ppm);
    enc.duration(cfg.power_step);
    enc.duration(cfg.idle_step);
    enc.duration(cfg.logger_window);
    enc.f64(cfg.logger_noise_w);
    enc.duration(cfg.launch_overhead);
    enc.duration(cfg.sync_overhead);
    enc.duration(cfg.timestamp_read_delay);
    enc.f64(cfg.timestamp_read_jitter);
    enc.f64(cfg.exec_time_sigma);
    enc.f64(cfg.outlier_run_probability);
    enc.f64(cfg.outlier_slowdown_min);
    enc.f64(cfg.outlier_slowdown_max);

    const auto& p = cfg.power;
    enc.f64(p.xcd_idle_w);
    enc.f64(p.iod_idle_w);
    enc.f64(p.hbm_idle_w);
    enc.f64(p.misc_w);
    enc.f64(p.xcd_dyn_w);
    enc.f64(p.xcd_residency_weight);
    enc.f64(p.xcd_issue_weight);
    enc.f64(p.iod_llc_w);
    enc.f64(p.iod_hbmphy_w);
    enc.f64(p.iod_fabric_w);
    enc.f64(p.hbm_dyn_w);
    enc.f64(p.leakage_fraction);
    enc.f64(p.leakage_temp_coeff);
    enc.f64(p.t_ref_c);
    enc.f64(p.voltage_floor);

    const auto& d = cfg.dvfs;
    enc.f64(d.boost_ratio);
    enc.f64(d.min_ratio);
    enc.f64(d.idle_ratio);
    enc.f64(d.sustained_limit_w);
    enc.f64(d.peak_limit_w);
    enc.duration(d.fast_tau);
    enc.duration(d.slow_tau);
    enc.f64(d.excursion_cut);
    enc.duration(d.excursion_hold);
    enc.f64(d.kp_per_us);
    enc.f64(d.recovery_per_us);
    enc.duration(d.idle_park_delay);
    enc.duration(d.boost_budget);
    enc.f64(d.nominal_ratio);
    enc.f64(d.recovery_guard);

    const auto& t = cfg.thermal;
    enc.f64(t.ambient_c);
    enc.f64(t.resistance_c_per_w);
    enc.duration(t.time_constant);
}

sim::MachineConfig
decodeMachineConfig(Decoder& dec)
{
    sim::MachineConfig cfg;
    cfg.num_xcds = dec.u64();
    cfg.cus_per_xcd = dec.u64();
    cfg.num_iods = dec.u64();
    cfg.num_hbm_stacks = dec.u64();
    cfg.peak_matrix_flops = dec.f64();
    cfg.peak_vector_flops = dec.f64();
    cfg.hbm_bandwidth = dec.f64();
    cfg.llc_bandwidth = dec.f64();
    cfg.llc_capacity = dec.i64();
    cfg.l2_capacity_per_xcd = dec.i64();
    cfg.hbm_capacity = dec.i64();
    cfg.node_gpus = dec.u64();
    cfg.fabric_links = dec.u64();
    cfg.fabric_link_bandwidth = dec.f64();
    cfg.boost_frequency_hz = dec.f64();
    cfg.nominal_frequency_hz = dec.f64();
    cfg.idle_frequency_hz = dec.f64();
    cfg.timestamp_tick = dec.duration();
    cfg.gpu_clock_drift_ppm = dec.f64();
    cfg.power_step = dec.duration();
    cfg.idle_step = dec.duration();
    cfg.logger_window = dec.duration();
    cfg.logger_noise_w = dec.f64();
    cfg.launch_overhead = dec.duration();
    cfg.sync_overhead = dec.duration();
    cfg.timestamp_read_delay = dec.duration();
    cfg.timestamp_read_jitter = dec.f64();
    cfg.exec_time_sigma = dec.f64();
    cfg.outlier_run_probability = dec.f64();
    cfg.outlier_slowdown_min = dec.f64();
    cfg.outlier_slowdown_max = dec.f64();

    auto& p = cfg.power;
    p.xcd_idle_w = dec.f64();
    p.iod_idle_w = dec.f64();
    p.hbm_idle_w = dec.f64();
    p.misc_w = dec.f64();
    p.xcd_dyn_w = dec.f64();
    p.xcd_residency_weight = dec.f64();
    p.xcd_issue_weight = dec.f64();
    p.iod_llc_w = dec.f64();
    p.iod_hbmphy_w = dec.f64();
    p.iod_fabric_w = dec.f64();
    p.hbm_dyn_w = dec.f64();
    p.leakage_fraction = dec.f64();
    p.leakage_temp_coeff = dec.f64();
    p.t_ref_c = dec.f64();
    p.voltage_floor = dec.f64();

    auto& d = cfg.dvfs;
    d.boost_ratio = dec.f64();
    d.min_ratio = dec.f64();
    d.idle_ratio = dec.f64();
    d.sustained_limit_w = dec.f64();
    d.peak_limit_w = dec.f64();
    d.fast_tau = dec.duration();
    d.slow_tau = dec.duration();
    d.excursion_cut = dec.f64();
    d.excursion_hold = dec.duration();
    d.kp_per_us = dec.f64();
    d.recovery_per_us = dec.f64();
    d.idle_park_delay = dec.duration();
    d.boost_budget = dec.duration();
    d.nominal_ratio = dec.f64();
    d.recovery_guard = dec.f64();

    auto& t = cfg.thermal;
    t.ambient_c = dec.f64();
    t.resistance_c_per_w = dec.f64();
    t.time_constant = dec.duration();
    return cfg;
}

// ---------------------------------------------------------------------------
// Whole-value helpers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t>
encode(const ScenarioSpec& spec)
{
    Encoder enc;
    encodeScenarioSpec(enc, spec);
    return enc.bytes();
}

std::vector<std::uint8_t>
encode(const ProfileSet& set)
{
    Encoder enc;
    encodeProfileSet(enc, set);
    return enc.bytes();
}

std::vector<std::uint8_t>
encode(const sim::MachineConfig& cfg)
{
    Encoder enc;
    encodeMachineConfig(enc, cfg);
    return enc.bytes();
}

ScenarioSpec
decodeScenarioSpec(const std::vector<std::uint8_t>& bytes)
{
    Decoder dec(bytes);
    auto spec = decodeScenarioSpec(dec);
    dec.expectEnd("ScenarioSpec");
    return spec;
}

ProfileSet
decodeProfileSet(const std::vector<std::uint8_t>& bytes)
{
    Decoder dec(bytes);
    auto set = decodeProfileSet(dec);
    dec.expectEnd("ProfileSet");
    return set;
}

sim::MachineConfig
decodeMachineConfig(const std::vector<std::uint8_t>& bytes)
{
    Decoder dec(bytes);
    auto cfg = decodeMachineConfig(dec);
    dec.expectEnd("MachineConfig");
    return cfg;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

namespace {

// XXH64 (Yann Collet's xxHash, 64-bit variant, seed 0): four
// independent 64-bit accumulator lanes over 32-byte stripes, so the
// multiply chains overlap instead of serializing on every byte.
constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

/** Little-endian loads whatever the host order: the checksum is part
 *  of the canonical bytes, so it must not depend on the machine. */
std::uint64_t
loadLe64(const std::uint8_t* p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t v = 0;
        std::memcpy(&v, p, sizeof v);
        return v;
    } else {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return v;
    }
}

std::uint32_t
loadLe32(const std::uint8_t* p)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::uint32_t v = 0;
        std::memcpy(&v, p, sizeof v);
        return v;
    } else {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        return v;
    }
}

std::uint64_t
xxRound(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kXxPrime2;
    return std::rotl(acc, 31) * kXxPrime1;
}

std::uint64_t
xxMergeRound(std::uint64_t acc, std::uint64_t lane)
{
    acc ^= xxRound(0, lane);
    return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

std::uint64_t
xxh64(const std::uint8_t* data, std::size_t size, std::uint64_t seed)
{
    const std::uint8_t* p = data;
    const std::uint8_t* const end = data + size;
    std::uint64_t h = seed + kXxPrime5;
    if (size >= 32) {
        std::uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
        std::uint64_t v2 = seed + kXxPrime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - kXxPrime1;
        for (const std::uint8_t* const limit = end - 32; p <= limit;
             p += 32) {
            v1 = xxRound(v1, loadLe64(p));
            v2 = xxRound(v2, loadLe64(p + 8));
            v3 = xxRound(v3, loadLe64(p + 16));
            v4 = xxRound(v4, loadLe64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxMergeRound(h, v1);
        h = xxMergeRound(h, v2);
        h = xxMergeRound(h, v3);
        h = xxMergeRound(h, v4);
    }
    h += static_cast<std::uint64_t>(size);

    for (; end - p >= 8; p += 8) {
        h ^= xxRound(0, loadLe64(p));
        h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    }
    if (end - p >= 4) {
        h ^= static_cast<std::uint64_t>(loadLe32(p)) * kXxPrime1;
        h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
        p += 4;
    }
    for (; p < end; ++p) {
        h ^= static_cast<std::uint64_t>(*p) * kXxPrime5;
        h = std::rotl(h, 11) * kXxPrime1;
    }

    h ^= h >> 33;
    h *= kXxPrime2;
    h ^= h >> 29;
    h *= kXxPrime3;
    h ^= h >> 32;
    return h;
}

namespace {

/** The header fields the checksum covers: magic, version, type and
 *  payload length, as laid out on the wire. */
Encoder
headerFields(FrameType type, std::uint64_t payload_len)
{
    Encoder header;
    header.u32(kMagic);
    header.u16(kVersion);
    header.u16(static_cast<std::uint16_t>(type));
    header.u64(payload_len);
    return header;
}

/** The frame checksum: XXH64 of the payload, seeded with XXH64 of the
 *  header fields, so a flip anywhere in the frame fails it. */
std::uint64_t
frameChecksum(FrameType type, const std::uint8_t* payload,
              std::uint64_t payload_len)
{
    const auto fields = headerFields(type, payload_len).bytes();
    return xxh64(payload, static_cast<std::size_t>(payload_len),
                 xxh64(fields.data(), fields.size()));
}

}  // namespace

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t>& payload)
{
    Encoder header = headerFields(type, payload.size());
    header.u64(frameChecksum(type, payload.data(), payload.size()));
    std::vector<std::uint8_t> out = header.bytes();
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

FrameHeader
decodeFrameHeader(const std::uint8_t* data)
{
    Decoder dec(data, kFrameHeaderBytes);
    const std::uint32_t magic = dec.u32();
    if (magic != kMagic)
        support::fatal("codec: bad frame magic 0x", std::hex, magic);
    const std::uint16_t version = dec.u16();
    if (version != kVersion) {
        support::fatal("codec: frame version ", version,
                       " does not match this build's version ", kVersion,
                       "; driver and worker binaries must match");
    }
    FrameHeader header;
    const std::uint16_t type = dec.u16();
    if (type < static_cast<std::uint16_t>(FrameType::kScenarioSpec) ||
        type > static_cast<std::uint16_t>(FrameType::kShutdown))
        support::fatal("codec: unknown frame type ", type);
    header.type = static_cast<FrameType>(type);
    // Validated here so every reader — stream- or fd-based — rejects a
    // corrupt length before trusting it with an allocation.
    header.payload_len = checkedCount(dec.u64(), "frame-payload byte");
    header.checksum = dec.u64();
    return header;
}

void
verifyFramePayload(const FrameHeader& header, const std::uint8_t* payload)
{
    if (frameChecksum(header.type, payload, header.payload_len) !=
        header.checksum) {
        support::fatal("codec: ", toString(header.type),
                       " frame checksum mismatch (corrupt or "
                       "truncated stream)");
    }
}

bool
writeFrame(std::ostream& out, FrameType type,
           const std::vector<std::uint8_t>& payload)
{
    const auto wire = encodeFrame(type, payload);
    out.write(reinterpret_cast<const char*>(wire.data()),
              static_cast<std::streamsize>(wire.size()));
    out.flush();
    return static_cast<bool>(out);
}

std::optional<Frame>
readFrame(std::istream& in)
{
    std::uint8_t header_bytes[kFrameHeaderBytes];
    in.read(reinterpret_cast<char*>(header_bytes), kFrameHeaderBytes);
    if (in.gcount() == 0 && in.eof())
        return std::nullopt;  // clean EOF on the frame boundary
    if (static_cast<std::size_t>(in.gcount()) != kFrameHeaderBytes)
        support::fatal("codec: truncated frame header (", in.gcount(),
                       " of ", kFrameHeaderBytes, " bytes)");
    const auto header = decodeFrameHeader(header_bytes);
    Frame frame;
    frame.type = header.type;
    frame.payload.resize(static_cast<std::size_t>(header.payload_len));
    if (header.payload_len > 0) {
        in.read(reinterpret_cast<char*>(frame.payload.data()),
                static_cast<std::streamsize>(header.payload_len));
        if (static_cast<std::uint64_t>(in.gcount()) != header.payload_len)
            support::fatal("codec: truncated ", toString(header.type),
                           " frame payload");
    }
    verifyFramePayload(header, frame.payload.data());
    return frame;
}

FrameHeader
verifyFrame(const std::uint8_t* data, std::size_t size)
{
    if (size < kFrameHeaderBytes)
        support::fatal("codec: frame shorter than its header");
    const auto header = decodeFrameHeader(data);
    if (size - kFrameHeaderBytes != header.payload_len)
        support::fatal("codec: frame length mismatch (header claims ",
                       header.payload_len, " payload bytes, buffer has ",
                       size - kFrameHeaderBytes, ")");
    verifyFramePayload(header, data + kFrameHeaderBytes);
    return header;
}

}  // namespace fingrav::core::codec
