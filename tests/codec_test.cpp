/**
 * @file
 * Wire-codec contract: exact round trips, canonical form, clean
 * rejection of anything that is not a well-formed current-version frame.
 *
 * Multi-process execution is only admissible because decode(encode(x))
 * reproduces x bit-for-bit — these tests drive randomized ScenarioSpecs
 * and ProfileSets (including IEEE-754 edge values: -0.0, denormals,
 * infinities) through the codec and require exact equality, then attack
 * the framing with truncation, corruption and a foreign version, all of
 * which must fail with support::FatalError rather than decode garbage.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fingrav/campaign_cache.hpp"
#include "fingrav/campaign_runner.hpp"
#include "fingrav/codec.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/time_types.hpp"

namespace fc = fingrav::core;
namespace codec = fingrav::core::codec;
namespace fs = fingrav::support;

namespace {

/** A few IEEE-754 edge values a canonical codec must preserve. */
double
edgeDouble(fs::Rng& rng)
{
    switch (rng.uniformInt(0, 5)) {
      case 0:
        return -0.0;
      case 1:
        return std::numeric_limits<double>::denorm_min();
      case 2:
        return std::numeric_limits<double>::infinity();
      case 3:
        return -std::numeric_limits<double>::max();
      case 4:
        return 1.0 + std::numeric_limits<double>::epsilon();
      default:
        return rng.uniform(-1e12, 1e12);
    }
}

fs::Duration
randomDuration(fs::Rng& rng)
{
    return fs::Duration::nanos(rng.uniformInt(-5'000'000, 5'000'000'000LL));
}

fc::BackgroundLoad
randomLoad(fs::Rng& rng)
{
    fc::BackgroundLoad load;
    load.kind = rng.uniformInt(0, 1) == 0 ? fc::BackgroundKind::kKernel
                                          : fc::BackgroundKind::kFabricDemand;
    load.kernel = rng.uniformInt(0, 1) == 0 ? "AR-512MB" : "MB-4K-GEMV";
    load.demand = rng.uniform(0.0, 1.5);
    load.device = static_cast<std::size_t>(rng.uniformInt(0, 7));
    load.queue = static_cast<std::size_t>(rng.uniformInt(0, 3));
    load.offset = randomDuration(rng);
    load.period = randomDuration(rng);
    load.duty_cycle = rng.uniform(0.01, 1.0);
    load.cycles = static_cast<std::size_t>(rng.uniformInt(0, 12));
    load.jitter_sigma = rng.uniformInt(0, 1) == 0 ? -1.0 : rng.uniform(0, 1);
    return load;
}

fc::ScenarioSpec
randomSpec(fs::Rng& rng)
{
    fc::ScenarioSpec spec;
    spec.label = rng.uniformInt(0, 1) == 0 ? "CB-8K-GEMM" : "AG-1GB";
    spec.seed = static_cast<std::uint64_t>(rng.uniformInt(0, 1 << 30));
    spec.devices = static_cast<std::size_t>(rng.uniformInt(0, 8));
    auto& opts = spec.opts;
    opts.device = static_cast<std::size_t>(rng.uniformInt(0, 7));
    if (rng.uniformInt(0, 1))
        opts.runs_override = static_cast<std::size_t>(rng.uniformInt(1, 200));
    if (rng.uniformInt(0, 1))
        opts.margin_override = rng.uniform(0.0, 0.3);
    opts.sse_executions = static_cast<std::size_t>(rng.uniformInt(1, 8));
    opts.timing_reps = static_cast<std::size_t>(rng.uniformInt(1, 9));
    opts.min_delay = randomDuration(rng);
    opts.max_delay = randomDuration(rng);
    opts.sync_mode = static_cast<fc::SyncMode>(rng.uniformInt(0, 3));
    opts.binning = rng.uniformInt(0, 1) == 1;
    opts.collect_extra_runs = rng.uniformInt(0, 1) == 1;
    opts.max_extra_run_factor = edgeDouble(rng);
    opts.stability_eps = rng.uniform(0.001, 0.2);
    opts.logger_window = randomDuration(rng);
    if (rng.uniformInt(0, 1))
        opts.target_bin = randomDuration(rng);
    const std::size_t loads = static_cast<std::size_t>(rng.uniformInt(0, 4));
    for (std::size_t i = 0; i < loads; ++i)
        spec.background.push_back(randomLoad(rng));
    return spec;
}

fc::PowerProfile
randomProfile(fs::Rng& rng, const std::string& label, fc::ProfileKind kind)
{
    fc::PowerProfile profile(label, kind);
    const std::size_t points = static_cast<std::size_t>(rng.uniformInt(0, 40));
    for (std::size_t i = 0; i < points; ++i) {
        fc::ProfilePoint p;
        p.toi_us = edgeDouble(rng);
        p.toi_frac = rng.uniform(0.0, 1.0);
        p.run_time_us = edgeDouble(rng);
        p.sample.gpu_timestamp = rng.uniformInt(-1, 1LL << 60);
        p.sample.total_w = edgeDouble(rng);
        p.sample.xcd_w = edgeDouble(rng);
        p.sample.iod_w = edgeDouble(rng);
        p.sample.hbm_w = edgeDouble(rng);
        p.run_index = static_cast<std::size_t>(rng.uniformInt(0, 300));
        p.exec_index = static_cast<std::size_t>(rng.uniformInt(0, 300));
        p.contended = rng.uniformInt(0, 1) == 1;
        profile.add(p);
    }
    return profile;
}

fc::ProfileSet
randomSet(fs::Rng& rng)
{
    fc::ProfileSet set;
    set.label = "AR-128KB";
    set.measured_exec_time = randomDuration(rng);
    set.guidance.exec_lo = randomDuration(rng);
    set.guidance.exec_hi = randomDuration(rng);
    set.guidance.runs = static_cast<std::size_t>(rng.uniformInt(1, 500));
    set.guidance.loi_per = randomDuration(rng);
    set.guidance.binning_margin = rng.uniform(0.0, 0.3);
    set.runs_executed = static_cast<std::size_t>(rng.uniformInt(0, 500));
    set.binning.bin_center = randomDuration(rng);
    const std::size_t golden = static_cast<std::size_t>(rng.uniformInt(0, 20));
    for (std::size_t i = 0; i < golden; ++i)
        set.binning.golden_runs.push_back(
            static_cast<std::size_t>(rng.uniformInt(0, 500)));
    set.binning.total_runs = static_cast<std::size_t>(rng.uniformInt(0, 500));
    set.sse_exec_index = static_cast<std::size_t>(rng.uniformInt(0, 20));
    set.ssp_exec_index = static_cast<std::size_t>(rng.uniformInt(0, 400));
    set.execs_per_run = static_cast<std::size_t>(rng.uniformInt(1, 400));
    set.ssp_exec_time = randomDuration(rng);
    set.loi_target = static_cast<std::size_t>(rng.uniformInt(0, 100));
    set.read_delay_us = edgeDouble(rng);
    set.drift_ppm = edgeDouble(rng);
    set.sse = randomProfile(rng, set.label, fc::ProfileKind::kSse);
    set.ssp = randomProfile(rng, set.label, fc::ProfileKind::kSsp);
    set.timeline = randomProfile(rng, set.label, fc::ProfileKind::kTimeline);
    return set;
}

void
expectSpecsEqual(const fc::ScenarioSpec& a, const fc::ScenarioSpec& b)
{
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.devices, b.devices);
    EXPECT_EQ(a.opts.device, b.opts.device);
    EXPECT_EQ(a.opts.runs_override, b.opts.runs_override);
    EXPECT_EQ(a.opts.margin_override, b.opts.margin_override);
    EXPECT_EQ(a.opts.sse_executions, b.opts.sse_executions);
    EXPECT_EQ(a.opts.timing_reps, b.opts.timing_reps);
    EXPECT_EQ(a.opts.min_delay, b.opts.min_delay);
    EXPECT_EQ(a.opts.max_delay, b.opts.max_delay);
    EXPECT_EQ(a.opts.sync_mode, b.opts.sync_mode);
    EXPECT_EQ(a.opts.binning, b.opts.binning);
    EXPECT_EQ(a.opts.collect_extra_runs, b.opts.collect_extra_runs);
    // Bit-pattern compare so -0.0 / inf round trips count as exact.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.opts.max_extra_run_factor),
              std::bit_cast<std::uint64_t>(b.opts.max_extra_run_factor));
    EXPECT_EQ(a.opts.stability_eps, b.opts.stability_eps);
    EXPECT_EQ(a.opts.logger_window, b.opts.logger_window);
    EXPECT_EQ(a.opts.target_bin, b.opts.target_bin);
    ASSERT_EQ(a.background.size(), b.background.size());
    for (std::size_t i = 0; i < a.background.size(); ++i) {
        const auto& la = a.background[i];
        const auto& lb = b.background[i];
        EXPECT_EQ(la.kind, lb.kind);
        EXPECT_EQ(la.kernel, lb.kernel);
        EXPECT_EQ(la.demand, lb.demand);
        EXPECT_EQ(la.device, lb.device);
        EXPECT_EQ(la.queue, lb.queue);
        EXPECT_EQ(la.offset, lb.offset);
        EXPECT_EQ(la.period, lb.period);
        EXPECT_EQ(la.duty_cycle, lb.duty_cycle);
        EXPECT_EQ(la.cycles, lb.cycles);
        EXPECT_EQ(la.jitter_sigma, lb.jitter_sigma);
    }
}

}  // namespace

TEST(Codec, ScenarioSpecRoundTripExact)
{
    fs::Rng rng(20250731);
    for (int i = 0; i < 25; ++i) {
        const auto spec = randomSpec(rng);
        const auto bytes = codec::encode(spec);
        const auto decoded = codec::decodeScenarioSpec(bytes);
        expectSpecsEqual(spec, decoded);
        // Canonical: re-encoding the decoded value reproduces the bytes.
        EXPECT_EQ(bytes, codec::encode(decoded));
    }
}

TEST(Codec, ProfileSetRoundTripExact)
{
    fs::Rng rng(777);
    for (int i = 0; i < 15; ++i) {
        const auto set = randomSet(rng);
        const auto bytes = codec::encode(set);
        const auto decoded = codec::decodeProfileSet(bytes);
        // identicalProfileSets is the same bitwise gate the fleet
        // backend is held to.
        EXPECT_TRUE(fc::identicalProfileSets(set, decoded));
        EXPECT_EQ(bytes, codec::encode(decoded));
    }
}

TEST(Codec, MachineConfigRoundTripExact)
{
    auto cfg = fingrav::sim::mi300xConfig();
    cfg.logger_noise_w = -0.0;  // sign bit must survive
    cfg.dvfs.boost_budget = fs::Duration::micros(1234.5);
    cfg.thermal.ambient_c = 17.25;
    const auto bytes = codec::encode(cfg);
    const auto decoded = codec::decodeMachineConfig(bytes);
    EXPECT_EQ(bytes, codec::encode(decoded));
    EXPECT_EQ(std::signbit(decoded.logger_noise_w), true);
    EXPECT_EQ(decoded.dvfs.boost_budget, fs::Duration::micros(1234.5));
    EXPECT_EQ(decoded.thermal.ambient_c, 17.25);
}

TEST(Codec, ProfileFnSpecCannotCrossTheWire)
{
    fc::ScenarioSpec spec;
    spec.label = "CB-2K-GEMM";
    spec.profile_fn = [](fingrav::runtime::HostRuntime&,
                         const fingrav::kernels::KernelModelPtr&,
                         const fc::ProfilerOptions&,
                         fs::Rng) { return fc::ProfileSet{}; };
    EXPECT_THROW(codec::encode(spec), fs::FatalError);
}

TEST(Codec, TrailingBytesRejected)
{
    fs::Rng rng(42);
    auto bytes = codec::encode(randomSpec(rng));
    bytes.push_back(0xab);
    EXPECT_THROW(codec::decodeScenarioSpec(bytes), fs::FatalError);
}

TEST(Codec, TruncatedPayloadFailsCleanly)
{
    fs::Rng rng(43);
    const auto bytes = codec::encode(randomSet(rng));
    // Every proper prefix must fail; probe a spread of cut points.
    for (std::size_t cut : {std::size_t{0}, std::size_t{1},
                            bytes.size() / 3, bytes.size() - 1}) {
        std::vector<std::uint8_t> short_bytes(bytes.begin(),
                                              bytes.begin() + cut);
        EXPECT_THROW(codec::decodeProfileSet(short_bytes), fs::FatalError)
            << "cut at " << cut;
    }
}

TEST(Codec, FrameRoundTripAndCleanEof)
{
    fs::Rng rng(44);
    const auto payload = codec::encode(randomSpec(rng));
    std::stringstream stream;
    ASSERT_TRUE(codec::writeFrame(
        stream, codec::FrameType::kScenarioSpec, payload));
    ASSERT_TRUE(codec::writeFrame(stream, codec::FrameType::kWorkDone, {}));

    const auto first = codec::readFrame(stream);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, codec::FrameType::kScenarioSpec);
    EXPECT_EQ(first->payload, payload);
    const auto second = codec::readFrame(stream);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, codec::FrameType::kWorkDone);
    // Clean EOF on the frame boundary is not an error.
    EXPECT_FALSE(codec::readFrame(stream).has_value());
}

TEST(Codec, TruncatedFrameFailsCleanly)
{
    fs::Rng rng(45);
    const auto wire = codec::encodeFrame(codec::FrameType::kScenarioSpec,
                                         codec::encode(randomSpec(rng)));
    // Header cut short.
    {
        std::stringstream stream;
        stream.write(reinterpret_cast<const char*>(wire.data()),
                     static_cast<std::streamsize>(codec::kFrameHeaderBytes -
                                                  3));
        EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    }
    // Payload cut short.
    {
        std::stringstream stream;
        stream.write(reinterpret_cast<const char*>(wire.data()),
                     static_cast<std::streamsize>(wire.size() - 5));
        EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    }
    EXPECT_THROW(codec::verifyFrame(wire.data(), wire.size() - 5),
                 fs::FatalError);
}

TEST(Codec, CorruptedPayloadFailsCleanly)
{
    fs::Rng rng(46);
    auto wire = codec::encodeFrame(codec::FrameType::kProfileSet,
                                   codec::encode(randomSet(rng)));
    wire[codec::kFrameHeaderBytes +
         (wire.size() - codec::kFrameHeaderBytes) / 2] ^= 0x40;
    EXPECT_THROW(codec::verifyFrame(wire.data(), wire.size()), fs::FatalError);
}

TEST(Codec, BadMagicRejected)
{
    auto wire = codec::encodeFrame(codec::FrameType::kWorkDone, {});
    wire[0] ^= 0xff;
    EXPECT_THROW(codec::verifyFrame(wire.data(), wire.size()), fs::FatalError);
}

TEST(Codec, VersionMismatchRejected)
{
    auto wire = codec::encodeFrame(codec::FrameType::kWorkDone, {});
    // The version field sits right after the 4-byte magic.
    wire[4] = static_cast<std::uint8_t>(codec::kVersion + 1);
    try {
        codec::verifyFrame(wire.data(), wire.size());
        FAIL() << "foreign version must be rejected";
    } catch (const fs::FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
}

TEST(Codec, ImplausiblePayloadLengthRejectedBeforeAllocation)
{
    // A corrupt header must be rejected at the length field — the
    // reader (driver or worker) must never trust it with a
    // multi-gigabyte allocation before the checksum can fire.
    auto wire = codec::encodeFrame(codec::FrameType::kWorkDone, {});
    for (std::size_t i = 8; i < 16; ++i)  // payload_len, past magic+ver+type
        wire[i] = 0xff;
    std::stringstream stream;
    stream.write(reinterpret_cast<const char*>(wire.data()),
                 static_cast<std::streamsize>(wire.size()));
    EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    EXPECT_THROW(codec::decodeFrameHeader(wire.data()), fs::FatalError);
}

TEST(Codec, UnknownFrameTypeRejected)
{
    auto wire = codec::encodeFrame(codec::FrameType::kWorkDone, {});
    wire[6] = 0x7f;  // type field, past magic + version
    EXPECT_THROW(codec::verifyFrame(wire.data(), wire.size()), fs::FatalError);
}

TEST(Codec, PreviousVersionFramesRejected)
{
    // v3 framed payloads under an FNV-1a checksum and v4 under an XXH64
    // checksum of the payload alone; a worker or cache blob of either
    // must be refused by version before its checksum is ever compared.
    for (const std::uint8_t old : {3, 4}) {
        auto wire = codec::encodeFrame(codec::FrameType::kWorkDone, {});
        wire[4] = old;
        wire[5] = 0;
        try {
            codec::verifyFrame(wire.data(), wire.size());
            FAIL() << "a v" << int{old} << " frame must be rejected";
        } catch (const fs::FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("version " +
                                                 std::to_string(old)),
                      std::string::npos)
                << e.what();
        }
        std::stringstream stream;
        stream.write(reinterpret_cast<const char*>(wire.data()),
                     static_cast<std::streamsize>(wire.size()));
        EXPECT_THROW(codec::readFrame(stream), fs::FatalError);
    }
}

TEST(Codec, EverySingleBitFlipOfAFrameIsRejected)
{
    // Bit granularity, not whole bytes: every one of the frame's bits
    // is flipped in turn, and verifyFrame itself must reject each flip.
    // The type field included: kScenarioSpec (1) reaches the valid
    // types 3, 5 and 9 by one flip, which only the checksum's coverage
    // of the header catches.
    fs::Rng rng(47);
    const auto wire = codec::encodeFrame(codec::FrameType::kScenarioSpec,
                                         codec::encode(randomSpec(rng)));
    ASSERT_LT(wire.size(), 4096u);
    std::size_t accepted = 0;
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
        auto mutated = wire;
        mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        try {
            codec::verifyFrame(mutated.data(), mutated.size());
            ++accepted;
            ADD_FAILURE() << "bit " << bit << " flip accepted";
        } catch (const fs::FatalError&) {
        }
    }
    EXPECT_EQ(accepted, 0u);
}

TEST(Codec, Xxh64SeededKnownAnswers)
{
    // The frame checksum seeds XXH64 with a hash of the header.  The
    // empty-input vector under seed 2654435761 is xxHash's own sanity
    // value; the others are pinned from an independent transcription.
    EXPECT_EQ(codec::xxh64(nullptr, 0, 2654435761ULL),
              0xAC75FDA2929B17EFULL);
    const std::string s = "Nobody inspects the spammish repetition";
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    EXPECT_EQ(codec::xxh64(p, 3, 1), 0x4B50F9DAD1F8AEEEULL);
    EXPECT_EQ(codec::xxh64(p, s.size(), 1), 0x43F425448D954DB6ULL);
    EXPECT_EQ(codec::xxh64(p, s.size(), 0xDEADBEEFCAFEF00DULL),
              0xFAD139E956158B5AULL);
}

TEST(Codec, Xxh64MatchesPublishedVectors)
{
    auto hash = [](const std::string& s) {
        return codec::xxh64(reinterpret_cast<const std::uint8_t*>(s.data()),
                            s.size());
    };
    EXPECT_EQ(hash(""), 0xEF46DB3751D8E999ULL);
    EXPECT_EQ(hash("abc"), 0x44BC2CF5AD770999ULL);
    // 39 bytes: one 32-byte stripe, then a 7-byte tail.
    EXPECT_EQ(hash("Nobody inspects the spammish repetition"),
              0xFBCEA83C8A378BF1ULL);
}

TEST(Codec, Xxh64KnownAnswersForEveryTailLength)
{
    // One 32-byte stripe followed by a 0-31 byte tail, so every
    // combination of the 8-, 4- and 1-byte tail steps runs.  Pinned
    // from this implementation; an independent transcription of the
    // algorithm reproduces the same 32 values.
    static constexpr std::uint64_t kExpected[32] = {
        0x07F7B8E3BC5D6E25ULL, 0x09F85EEB4E1CBE9FULL,
        0x35284E7F91DD1AE5ULL, 0x25CC31E4544BC8C9ULL,
        0xE7AC625222F2B655ULL, 0x1D8C3A2215085739ULL,
        0x1FB3064ED36C675FULL, 0xB13C137A0FB701C3ULL,
        0xD25150177BA46490ULL, 0x3AD8BB2779D9285EULL,
        0xFE4DDAB6E3D75DDCULL, 0x9D340603AA03CC62ULL,
        0xD02B2028C27A5329ULL, 0xFF59426B0066066BULL,
        0x713A114207F600E2ULL, 0x79BD9D6DD8C15570ULL,
        0x2947DE5E3A6AFECEULL, 0x43F1E784039912D3ULL,
        0x072FA9968401E9C7ULL, 0xC3C4FF0D8F66E206ULL,
        0x0EFBC3939FA05814ULL, 0x42BE842D0902D7A7ULL,
        0x8A78B907C424DC46ULL, 0x8F8DC5B07F6D48EDULL,
        0xA2ACF5B431DB2E52ULL, 0x403200F5D0354116ULL,
        0xC326A3D65678339BULL, 0xA53B8E5BC9FF65A4ULL,
        0x4CCE586D8ACA19E5ULL, 0xBD3BD33486AF6DC6ULL,
        0x4149DD403B20A2DCULL, 0xB7C9968C066CB6A5ULL,
    };
    std::vector<std::uint8_t> bytes(63);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 131u + 7u);
    for (std::size_t tail = 0; tail < 32; ++tail)
        EXPECT_EQ(codec::xxh64(bytes.data(), 32 + tail), kExpected[tail])
            << "tail " << tail;
}

TEST(Codec, Xxh64IgnoresBufferAlignment)
{
    // Lanes are loaded with unaligned little-endian loads: the same
    // bytes hash the same at every offset.
    std::vector<std::uint8_t> bytes(200);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 29u + 3u);
    const std::uint64_t aligned = codec::xxh64(bytes.data(), 150);
    for (std::size_t offset = 1; offset < 8; ++offset) {
        std::vector<std::uint8_t> shifted(offset, 0xAB);
        shifted.insert(shifted.end(), bytes.begin(), bytes.begin() + 150);
        EXPECT_EQ(codec::xxh64(shifted.data() + offset, 150), aligned)
            << "offset " << offset;
    }
}

// ---- v2 columnar profile layout ------------------------------------------

namespace {

/** A ProfileSet whose only points sit in the timeline profile, so its
 *  columns are the trailing bytes of the encoded payload. */
fc::ProfileSet
timelineOnlySet(std::size_t points)
{
    fc::ProfileSet set;
    set.label = "v2";
    set.sse = fc::PowerProfile("v2", fc::ProfileKind::kSse);
    set.ssp = fc::PowerProfile("v2", fc::ProfileKind::kSsp);
    set.timeline = fc::PowerProfile("v2", fc::ProfileKind::kTimeline);
    for (std::size_t i = 0; i < points; ++i) {
        fc::ProfilePoint p;
        p.run_time_us = static_cast<double>(i);
        p.sample.total_w = 100.0 + static_cast<double>(i);
        p.run_index = i;
        p.contended = i % 2 == 0;
        set.timeline.add(p);
    }
    return set;
}

}  // namespace

TEST(Codec, ContentionBitmapTrailingGarbageRejected)
{
    // The packed contention bitmap is the final column of a profile; its
    // bits past the point count must be zero (canonical form).  The
    // timeline is the last profile of a ProfileSet, so its bitmap word is
    // the payload's last 8 bytes — set a bit past n and decode must
    // reject the frame instead of quietly dropping the garbage (which
    // would break re-encode equality).
    auto bytes = codec::encode(timelineOnlySet(3));
    ASSERT_GE(bytes.size(), 8u);
    bytes[bytes.size() - 8] |= 0x08;  // bit 3: first bit past n=3
    EXPECT_THROW(codec::decodeProfileSet(bytes), fs::FatalError);
}

TEST(Codec, ColumnarTruncationInsideEveryColumnRejected)
{
    // v2 reads whole columns with one bounds check each; a cut anywhere
    // inside the column region must still fail cleanly.  131 points spans
    // three bitmap words and makes each f64 column 1048 bytes, so the
    // probed cuts land inside different columns.
    const auto bytes = codec::encode(timelineOnlySet(131));
    for (const double frac : {0.35, 0.55, 0.75, 0.95, 0.999}) {
        const auto cut =
            static_cast<std::size_t>(static_cast<double>(bytes.size()) *
                                     frac);
        std::vector<std::uint8_t> short_bytes(bytes.begin(),
                                              bytes.begin() + cut);
        EXPECT_THROW(codec::decodeProfileSet(short_bytes), fs::FatalError)
            << "cut at " << cut;
    }
}

TEST(Codec, ColumnarRoundTripPreservesBitmapAcrossWordBoundaries)
{
    for (const std::size_t n : {std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{130}}) {
        const auto set = timelineOnlySet(n);
        const auto bytes = codec::encode(set);
        const auto decoded = codec::decodeProfileSet(bytes);
        EXPECT_TRUE(fc::identicalProfileSets(set, decoded)) << n;
        EXPECT_EQ(bytes, codec::encode(decoded)) << n;
        EXPECT_EQ(decoded.timeline.contendedCount(),
                  set.timeline.contendedCount());
    }
}

// ---- golden wire bytes -----------------------------------------------------

namespace {

/** A spec with every optional set and one background load of each kind. */
fc::ScenarioSpec
goldenSpec()
{
    fc::ScenarioSpec spec;
    spec.label = "CB-2K-GEMM";
    spec.seed = 0x1234'5678'9ABCULL;
    spec.devices = 2;
    auto& opts = spec.opts;
    opts.device = 1;
    opts.runs_override = 7;
    opts.margin_override = 0.125;
    opts.sse_executions = 3;
    opts.timing_reps = 6;
    opts.min_delay = fs::Duration::micros(150.0);
    opts.max_delay = fs::Duration::millis(1.5);
    opts.sync_mode = fc::SyncMode::kFinGraVDrift;
    opts.binning = false;
    opts.collect_extra_runs = false;
    opts.max_extra_run_factor = -0.0;
    opts.stability_eps = 0.02;
    opts.logger_window = fs::Duration::micros(500.0);
    opts.target_bin = fs::Duration::nanos(-42);
    fc::BackgroundLoad kernel;
    kernel.kind = fc::BackgroundKind::kKernel;
    kernel.kernel = "MB-4K-GEMV";
    kernel.device = 1;
    kernel.queue = 2;
    kernel.offset = fs::Duration::micros(10.0);
    kernel.period = fs::Duration::micros(400.0);
    kernel.duty_cycle = 0.5;
    kernel.cycles = 3;
    kernel.jitter_sigma = 0.02;
    fc::BackgroundLoad demand;
    demand.kind = fc::BackgroundKind::kFabricDemand;
    demand.demand = 0.75;
    demand.device = 0;
    demand.queue = 0;
    demand.period = fs::Duration::micros(-1.0);
    spec.background = {kernel, demand};
    return spec;
}

std::uint64_t
hashOf(const std::vector<std::uint8_t>& bytes)
{
    return codec::xxh64(bytes.data(), bytes.size());
}

std::vector<std::uint8_t>
concat(std::vector<std::uint8_t> a, const std::vector<std::uint8_t>& b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

}  // namespace

TEST(Codec, GoldenWireBytes)
{
    // The wire contract pinned byte for byte (through its XXH64): any
    // change to a field list, an integer width or an order moves one of
    // these, and must come with a kVersion bump and a re-pin.  The frame
    // payloads are spelled out from the public primitives, so this test
    // reads the same bytes whatever code produces them.
    const auto cfg = fingrav::sim::mi300xConfig();
    const auto spec = goldenSpec();
    fc::ScenarioSpec run_spec;
    run_spec.label = "CB-2K-GEMM";
    run_spec.opts.runs_override = 2;
    const auto set = fc::CampaignRunner::runOne(run_spec, cfg);

    const auto cfg_bytes = codec::encode(cfg);
    const auto spec_bytes = codec::encode(spec);
    const auto set_bytes = codec::encode(set);
    EXPECT_EQ(cfg_bytes.size(), 512u);
    EXPECT_EQ(hashOf(cfg_bytes), 0x535F4A98A36F1D47ULL);
    EXPECT_EQ(spec_bytes.size(), 276u);
    EXPECT_EQ(hashOf(spec_bytes), 0x3ABF5D0E35B1B58CULL);
    EXPECT_EQ(set_bytes.size(), 2811u);
    EXPECT_EQ(hashOf(set_bytes), 0x6603DEB615B21545ULL);

    const std::string key = fc::CampaignCache::key(spec, cfg);
    EXPECT_EQ(codec::xxh64(reinterpret_cast<const std::uint8_t*>(key.data()),
                           key.size()),
              0x9D06B70F34862628ULL);

    // kWorkRequest: MachineConfig, u32 count, then (u64 slot, spec) pairs.
    codec::Encoder request_head;
    request_head.u32(1);
    request_head.u64(5);
    const auto request =
        concat(concat(cfg_bytes, request_head.bytes()), spec_bytes);
    EXPECT_EQ(hashOf(request), 0x6355FD3EC8BAF503ULL);

    // kWorkResult: u64 slot, then the ProfileSet.
    codec::Encoder result_head;
    result_head.u64(5);
    EXPECT_EQ(hashOf(concat(result_head.bytes(), set_bytes)),
              0xC504292D8BE0BA9EULL);
}

TEST(Codec, FramePayloadsMatchTheGoldenLayouts)
{
    // The typed payload functions produce exactly the bytes the golden
    // test spells out from the primitives, and decode them back.
    const auto cfg = fingrav::sim::mi300xConfig();
    const auto spec = goldenSpec();
    fs::Rng rng(48);
    const auto set = randomSet(rng);

    codec::Encoder request_head;
    request_head.u32(1);
    request_head.u64(5);
    const auto request = codec::encodeWorkRequest(cfg, {{5, spec}});
    EXPECT_EQ(request, concat(concat(codec::encode(cfg),
                                     request_head.bytes()),
                              codec::encode(spec)));
    const auto decoded_request = codec::decodeWorkRequest(request);
    EXPECT_EQ(codec::encode(decoded_request.cfg), codec::encode(cfg));
    ASSERT_EQ(decoded_request.items.size(), 1u);
    EXPECT_EQ(decoded_request.items[0].first, 5u);
    expectSpecsEqual(decoded_request.items[0].second, spec);

    codec::Encoder result_head;
    result_head.u64(7);
    const auto result = codec::encodeWorkResult(7, set);
    EXPECT_EQ(result, concat(result_head.bytes(), codec::encode(set)));
    const auto decoded_result = codec::decodeWorkResult(result);
    EXPECT_EQ(decoded_result.slot, 7u);
    EXPECT_TRUE(fc::identicalProfileSets(decoded_result.set, set));

    EXPECT_EQ(codec::decodeWorkDone(codec::encodeWorkDone(3)), 3u);
    EXPECT_EQ(codec::decodeWorkerError(codec::encodeWorkerError("boom")),
              "boom");
    auto done = codec::encodeWorkDone(1);
    done.push_back(0);
    EXPECT_THROW(codec::decodeWorkDone(done), fs::FatalError);

    const std::string key = codec::cacheKey(spec, cfg);
    EXPECT_EQ(key, fc::CampaignCache::key(spec, cfg));
    const auto blob = codec::encodeCacheEntry(key, set);
    const auto entry = codec::decodeCacheEntry(blob.data(), blob.size());
    EXPECT_EQ(entry.key, key);
    EXPECT_TRUE(fc::identicalProfileSets(entry.set, set));
    // A valid frame of another type is not a cache entry.
    const auto other = codec::encodeFrame(codec::FrameType::kWorkResult,
                                          result);
    EXPECT_THROW(codec::decodeCacheEntry(other.data(), other.size()),
                 fs::FatalError);
}

TEST(Codec, ForeignVersionProbeReadsOnlyTheHeader)
{
    fs::Rng rng(49);
    auto blob = codec::encodeCacheEntry("key", randomSet(rng));
    const auto probe = [&](const std::vector<std::uint8_t>& bytes) {
        return codec::foreignVersionFrame(bytes.data(), bytes.size(),
                                          codec::FrameType::kCacheEntry);
    };
    EXPECT_FALSE(probe(blob));  // current version: not foreign
    blob[4] = static_cast<std::uint8_t>(codec::kVersion - 1);
    EXPECT_TRUE(probe(blob));
    EXPECT_FALSE(codec::foreignVersionFrame(blob.data(), blob.size(),
                                            codec::FrameType::kWorkResult));
    auto truncated = blob;
    truncated.pop_back();
    EXPECT_FALSE(probe(truncated));
    auto bad_magic = blob;
    bad_magic[0] ^= 0xff;
    EXPECT_FALSE(probe(bad_magic));
    EXPECT_FALSE(probe({blob.begin(), blob.begin() + 10}));
}
