#include "fingrav/codec.hpp"

#include <algorithm>
#include <bit>
#include <concepts>
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

/** Little-endian integer bytes whatever the host order: the one place
 *  the wire's byte order is written down (payloads, columns, checksum). */
template <typename U>
void
storeLe(std::vector<std::uint8_t>& bytes, U v)
{
    for (std::size_t i = 0; i < sizeof v; ++i)
        bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

template <typename U>
U
loadLe(const std::uint8_t* p)
{
    U v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof v);
    } else {
        for (std::size_t i = 0; i < sizeof v; ++i)
            v |= static_cast<U>(p[i]) << (8 * i);
    }
    return v;
}

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
    storeLe(bytes_, v);
}

void
Encoder::u32(std::uint32_t v)
{
    storeLe(bytes_, v);
}

void
Encoder::u64(std::uint64_t v)
{
    storeLe(bytes_, v);
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
        for (const T x : v)
            storeLe(bytes, std::bit_cast<std::uint64_t>(x));
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
    return loadLe<std::uint16_t>(need(2));
}

std::uint32_t
Decoder::u32()
{
    return loadLe<std::uint32_t>(need(4));
}

std::uint64_t
Decoder::u64()
{
    return loadLe<std::uint64_t>(need(8));
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
        for (std::size_t i = 0; i < n; ++i)
            out[i] = std::bit_cast<T>(loadLe<std::uint64_t>(p + 8 * i));
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
// Field lists: the one statement of each layout
// ---------------------------------------------------------------------------

namespace {

/** T is U or const U: one field list serves the encoder (const) and the
 *  decoder (mutable). */
template <typename T, typename U>
concept MaybeConst = std::same_as<std::remove_const_t<T>, U>;

// Each fields() names a type's wire fields in wire order.  Writer and
// Reader below visit the list and pick each field's wire form from its
// C++ type.  Editing a list changes the bytes: bump kVersion (and the
// GoldenWireBytes pins in tests/codec_test.cpp).

template <typename Io, MaybeConst<ProfilerOptions> T>
void
fields(Io& io, T& o)
{
    io(o.device, o.runs_override, o.margin_override, o.sse_executions,
       o.timing_reps, o.min_delay, o.max_delay, o.sync_mode, o.binning,
       o.collect_extra_runs, o.max_extra_run_factor, o.stability_eps,
       o.logger_window, o.target_bin);
}

template <typename Io, MaybeConst<BackgroundLoad> T>
void
fields(Io& io, T& l)
{
    io(l.kind, l.kernel, l.demand, l.device, l.queue, l.offset, l.period,
       l.duty_cycle, l.cycles, l.jitter_sigma);
}

template <typename Io, MaybeConst<ScenarioSpec> T>
void
fields(Io& io, T& s)
{
    if constexpr (std::is_const_v<T>) {
        if (s.profile_fn) {
            support::fatal("codec: a ScenarioSpec with a custom profile_fn "
                           "cannot cross the wire (", s.label,
                           "); run it on the in-process path");
        }
    }
    io(s.label, s.seed, s.opts, s.devices, s.background);
}

template <typename Io, MaybeConst<GuidanceEntry> T>
void
fields(Io& io, T& g)
{
    io(g.exec_lo, g.exec_hi, g.runs, g.loi_per, g.binning_margin);
}

template <typename Io, MaybeConst<BinningResult> T>
void
fields(Io& io, T& b)
{
    io(b.bin_center, b.golden_runs, b.total_runs);
}

template <typename Io, MaybeConst<ProfileSet> T>
void
fields(Io& io, T& s)
{
    io(s.label, s.measured_exec_time, s.guidance, s.runs_executed,
       s.binning, s.sse_exec_index, s.ssp_exec_index, s.execs_per_run,
       s.ssp_exec_time, s.loi_target, s.read_delay_us, s.drift_ppm, s.sse,
       s.ssp, s.timeline);
}

template <typename Io, MaybeConst<sim::PowerModelParams> T>
void
fields(Io& io, T& p)
{
    io(p.xcd_idle_w, p.iod_idle_w, p.hbm_idle_w, p.misc_w, p.xcd_dyn_w,
       p.xcd_residency_weight, p.xcd_issue_weight, p.iod_llc_w,
       p.iod_hbmphy_w, p.iod_fabric_w, p.hbm_dyn_w, p.leakage_fraction,
       p.leakage_temp_coeff, p.t_ref_c, p.voltage_floor);
}

template <typename Io, MaybeConst<sim::DvfsGovernorParams> T>
void
fields(Io& io, T& d)
{
    io(d.boost_ratio, d.min_ratio, d.idle_ratio, d.sustained_limit_w,
       d.peak_limit_w, d.fast_tau, d.slow_tau, d.excursion_cut,
       d.excursion_hold, d.kp_per_us, d.recovery_per_us, d.idle_park_delay,
       d.boost_budget, d.nominal_ratio, d.recovery_guard);
}

template <typename Io, MaybeConst<sim::ThermalParams> T>
void
fields(Io& io, T& t)
{
    io(t.ambient_c, t.resistance_c_per_w, t.time_constant);
}

template <typename Io, MaybeConst<sim::MachineConfig> T>
void
fields(Io& io, T& c)
{
    io(c.num_xcds, c.cus_per_xcd, c.num_iods, c.num_hbm_stacks,
       c.peak_matrix_flops, c.peak_vector_flops, c.hbm_bandwidth,
       c.llc_bandwidth, c.llc_capacity, c.l2_capacity_per_xcd,
       c.hbm_capacity, c.node_gpus, c.fabric_links, c.fabric_link_bandwidth,
       c.boost_frequency_hz, c.nominal_frequency_hz, c.idle_frequency_hz,
       c.timestamp_tick, c.gpu_clock_drift_ppm, c.power_step, c.idle_step,
       c.logger_window, c.logger_noise_w, c.launch_overhead,
       c.sync_overhead, c.timestamp_read_delay, c.timestamp_read_jitter,
       c.exec_time_sigma, c.outlier_run_probability,
       c.outlier_slowdown_min, c.outlier_slowdown_max, c.power, c.dvfs,
       c.thermal);
}

/** The last valid value and the name of each wire enum (a u8). */
constexpr std::pair<SyncMode, const char*>
enumRange(SyncMode)
{
    return {SyncMode::kCoarseAlign, "sync mode"};
}

constexpr std::pair<BackgroundKind, const char*>
enumRange(BackgroundKind)
{
    return {BackgroundKind::kFabricDemand, "background kind"};
}

constexpr std::pair<ProfileKind, const char*>
enumRange(ProfileKind)
{
    return {ProfileKind::kTimeline, "profile kind"};
}

template <typename E>
E
readEnum(Decoder& dec)
{
    constexpr auto range = enumRange(E{});
    const std::uint8_t v = dec.u8();
    if (v > static_cast<std::uint8_t>(range.first))
        support::fatal("codec: invalid ", range.second, " ", int(v));
    return static_cast<E>(v);
}

/**
 * v2 columnar profile layout, the one hand-written pair: label, kind,
 * point count, then one contiguous block per column in declaration
 * order — toi_us, toi_frac, run_time_us, gpu_timestamp, total_w, xcd_w,
 * iod_w, hbm_w, run_index, exec_index — and finally the packed
 * contention bitmap, (n + 63) / 64 u64 words whose trailing bits past n
 * MUST be zero (canonical form; decode rejects trailing garbage).  The
 * word count is derived from n, never read off the wire.
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
    PowerProfile profile(label, readEnum<ProfileKind>(dec));
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

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

/** Encodes a field list; each field's C++ type picks its wire form. */
class Writer {
  public:
    explicit Writer(Encoder& enc) : enc_(enc) {}

    template <typename... Ts>
    void
    operator()(const Ts&... xs)
    {
        (put(xs), ...);
    }

  private:
    template <typename T>
    void
    put(const T& x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            enc_.boolean(x);
        } else if constexpr (std::is_enum_v<T>) {
            enc_.u8(static_cast<std::uint8_t>(x));
        } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 2) {
            enc_.u16(x);
        } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 4) {
            enc_.u32(x);
        } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
            enc_.u64(x);
        } else if constexpr (std::is_signed_v<T> && std::is_integral_v<T>) {
            static_assert(sizeof(T) == 8, "signed wire integers are i64");
            enc_.i64(x);
        } else if constexpr (std::is_same_v<T, double>) {
            enc_.f64(x);
        } else if constexpr (std::is_same_v<T, std::string>) {
            enc_.str(x);
        } else if constexpr (std::is_same_v<T, Duration>) {
            enc_.duration(x);
        } else if constexpr (kIsOptional<T>) {
            enc_.boolean(x.has_value());
            if (x.has_value())
                put(*x);
        } else if constexpr (kIsVector<T>) {
            enc_.u32(static_cast<std::uint32_t>(x.size()));
            for (const auto& element : x)
                put(element);
        } else if constexpr (kIsPair<T>) {
            put(x.first);
            put(x.second);
        } else if constexpr (std::is_same_v<T, PowerProfile>) {
            encodePowerProfile(enc_, x);
        } else {
            fields(*this, x);
        }
    }

    Encoder& enc_;
};

/** Decodes a field list into default-constructed values, mirroring Writer. */
class Reader {
  public:
    explicit Reader(Decoder& dec) : dec_(dec) {}

    template <typename... Ts>
    void
    operator()(Ts&... xs)
    {
        (get(xs), ...);
    }

  private:
    template <typename T>
    void
    get(T& x)
    {
        if constexpr (std::is_same_v<T, bool>) {
            x = dec_.boolean();
        } else if constexpr (std::is_enum_v<T>) {
            x = readEnum<T>(dec_);
        } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 2) {
            x = dec_.u16();
        } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 4) {
            x = dec_.u32();
        } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
            x = dec_.u64();
        } else if constexpr (std::is_signed_v<T> && std::is_integral_v<T>) {
            x = dec_.i64();
        } else if constexpr (std::is_same_v<T, double>) {
            x = dec_.f64();
        } else if constexpr (std::is_same_v<T, std::string>) {
            x = dec_.str();
        } else if constexpr (std::is_same_v<T, Duration>) {
            x = dec_.duration();
        } else if constexpr (kIsOptional<T>) {
            x.reset();
            if (dec_.boolean())
                get(x.emplace());
        } else if constexpr (kIsVector<T>) {
            const std::uint64_t n = checkedCount(dec_.u32(), "list-element");
            x.clear();
            x.reserve(std::min<std::uint64_t>(n, dec_.remaining()));
            for (std::uint64_t i = 0; i < n; ++i)
                get(x.emplace_back());
        } else if constexpr (kIsPair<T>) {
            get(x.first);
            get(x.second);
        } else if constexpr (std::is_same_v<T, PowerProfile>) {
            x = decodePowerProfile(dec_);
        } else {
            fields(*this, x);
        }
    }

    Decoder& dec_;
};

/** The payload of a field list. */
template <typename... Ts>
std::vector<std::uint8_t>
encodeFields(const Ts&... xs)
{
    Encoder enc;
    Writer{enc}(xs...);
    return std::move(enc).bytes();
}

/** Decode `size` bytes into `xs`, failing unless they are consumed
 *  exactly. */
template <typename... Ts>
void
decodeFields(const std::uint8_t* data, std::size_t size, const char* what,
             Ts&... xs)
{
    Decoder dec(data, size);
    Reader{dec}(xs...);
    dec.expectEnd(what);
}

template <typename T>
T
decodeWhole(const std::vector<std::uint8_t>& bytes, const char* what)
{
    T value;
    decodeFields(bytes.data(), bytes.size(), what, value);
    return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// Whole values and frame payloads
// ---------------------------------------------------------------------------

std::vector<std::uint8_t>
encode(const ScenarioSpec& spec)
{
    return encodeFields(spec);
}

std::vector<std::uint8_t>
encode(const ProfileSet& set)
{
    return encodeFields(set);
}

std::vector<std::uint8_t>
encode(const sim::MachineConfig& cfg)
{
    return encodeFields(cfg);
}

ScenarioSpec
decodeScenarioSpec(const std::vector<std::uint8_t>& bytes)
{
    return decodeWhole<ScenarioSpec>(bytes, "ScenarioSpec");
}

ProfileSet
decodeProfileSet(const std::vector<std::uint8_t>& bytes)
{
    return decodeWhole<ProfileSet>(bytes, "ProfileSet");
}

sim::MachineConfig
decodeMachineConfig(const std::vector<std::uint8_t>& bytes)
{
    return decodeWhole<sim::MachineConfig>(bytes, "MachineConfig");
}

std::vector<std::uint8_t>
encodeWorkRequest(
    const sim::MachineConfig& cfg,
    const std::vector<std::pair<std::uint64_t, ScenarioSpec>>& items)
{
    return encodeFields(cfg, items);
}

WorkRequest
decodeWorkRequest(const std::vector<std::uint8_t>& payload)
{
    WorkRequest request;
    decodeFields(payload.data(), payload.size(), "work request",
                 request.cfg, request.items);
    return request;
}

std::vector<std::uint8_t>
encodeWorkResult(std::uint64_t slot, const ProfileSet& set)
{
    return encodeFields(slot, set);
}

WorkResult
decodeWorkResult(const std::vector<std::uint8_t>& payload)
{
    WorkResult result;
    decodeFields(payload.data(), payload.size(), "work result", result.slot,
                 result.set);
    return result;
}

std::vector<std::uint8_t>
encodeWorkDone(std::uint32_t count)
{
    return encodeFields(count);
}

std::uint32_t
decodeWorkDone(const std::vector<std::uint8_t>& payload)
{
    return decodeWhole<std::uint32_t>(payload, "work done");
}

std::vector<std::uint8_t>
encodeWorkerError(const std::string& message)
{
    return encodeFields(message);
}

std::string
decodeWorkerError(const std::vector<std::uint8_t>& payload)
{
    return decodeWhole<std::string>(payload, "worker error");
}

std::string
cacheKey(const ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    const auto bytes = encodeFields(kVersion, spec, cfg);
    return std::string(bytes.begin(), bytes.end());
}

std::vector<std::uint8_t>
encodeCacheEntry(const std::string& key, const ProfileSet& set)
{
    return encodeFrame(FrameType::kCacheEntry, encodeFields(key, set));
}

CacheEntry
decodeCacheEntry(const std::uint8_t* data, std::size_t size)
{
    const auto header = verifyFrame(data, size);
    if (header.type != FrameType::kCacheEntry) {
        support::fatal("codec: blob holds a ", toString(header.type),
                       " frame, not a cache entry");
    }
    CacheEntry entry;
    decodeFields(data + kFrameHeaderBytes,
                 static_cast<std::size_t>(header.payload_len), "cache entry",
                 entry.key, entry.set);
    return entry;
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
            v1 = xxRound(v1, loadLe<std::uint64_t>(p));
            v2 = xxRound(v2, loadLe<std::uint64_t>(p + 8));
            v3 = xxRound(v3, loadLe<std::uint64_t>(p + 16));
            v4 = xxRound(v4, loadLe<std::uint64_t>(p + 24));
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
        h ^= xxRound(0, loadLe<std::uint64_t>(p));
        h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    }
    if (end - p >= 4) {
        h ^= static_cast<std::uint64_t>(loadLe<std::uint32_t>(p)) * kXxPrime1;
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
    std::vector<std::uint8_t> out = std::move(header).bytes();
    out.reserve(kFrameHeaderBytes + payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

namespace {

/** The header fields as laid out on the wire, not yet validated. */
struct RawHeader {
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t type = 0;
    std::uint64_t payload_len = 0;
    std::uint64_t checksum = 0;
};

RawHeader
readHeader(const std::uint8_t* data)
{
    Decoder dec(data, kFrameHeaderBytes);
    RawHeader raw;
    raw.magic = dec.u32();
    raw.version = dec.u16();
    raw.type = dec.u16();
    raw.payload_len = dec.u64();
    raw.checksum = dec.u64();
    return raw;
}

}  // namespace

FrameHeader
decodeFrameHeader(const std::uint8_t* data)
{
    const RawHeader raw = readHeader(data);
    if (raw.magic != kMagic)
        support::fatal("codec: bad frame magic 0x", std::hex, raw.magic);
    if (raw.version != kVersion) {
        support::fatal("codec: frame version ", raw.version,
                       " does not match this build's version ", kVersion,
                       "; driver and worker binaries must match");
    }
    if (raw.type < static_cast<std::uint16_t>(FrameType::kScenarioSpec) ||
        raw.type > static_cast<std::uint16_t>(FrameType::kShutdown))
        support::fatal("codec: unknown frame type ", raw.type);
    FrameHeader header;
    header.type = static_cast<FrameType>(raw.type);
    // Validated here so every reader — stream- or fd-based — rejects a
    // corrupt length before trusting it with an allocation.
    header.payload_len = checkedCount(raw.payload_len, "frame-payload byte");
    header.checksum = raw.checksum;
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

bool
foreignVersionFrame(const std::uint8_t* data, std::size_t size,
                    FrameType type)
{
    if (size < kFrameHeaderBytes)
        return false;
    const RawHeader raw = readHeader(data);
    return raw.magic == kMagic && raw.version != kVersion &&
           raw.type == static_cast<std::uint16_t>(type) &&
           raw.payload_len == size - kFrameHeaderBytes;
}

}  // namespace fingrav::core::codec
