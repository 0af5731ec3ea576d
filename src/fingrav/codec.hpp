#ifndef FINGRAV_FINGRAV_CODEC_HPP_
#define FINGRAV_FINGRAV_CODEC_HPP_

/**
 * @file
 * Versioned canonical binary encoding for the campaign wire contract.
 *
 * Multi-process campaign execution (fingrav/worker_fleet.hpp) ships
 * hermetic scenarios to worker processes and slot-addressed results
 * back; the encoding defined here is the wire contract both sides speak.
 * Three properties it must hold, in order of importance:
 *
 *  - *Round-trip exactness.*  decode(encode(x)) reproduces every field
 *    of x bit-for-bit — doubles travel as their IEEE-754 bit patterns,
 *    simulated time as raw nanosecond counts — so a ProfileSet computed
 *    in a worker and reassembled by the driver is indistinguishable from
 *    one computed in-process (the FleetBackend bit-identity gate).
 *
 *  - *Canonical form.*  Equal values encode to equal bytes: fixed-width
 *    little-endian integers, length-prefixed strings and vectors, fields
 *    in declaration order, no padding, no optional representations.
 *
 *  - *Versioned framing.*  Every frame carries the codec version and an
 *    XXH64 checksum over its header fields and payload; a reader
 *    confronted with a foreign version, a corrupt header or a
 *    truncated/mangled payload fails cleanly (support::FatalError)
 *    instead of decoding garbage.
 *
 * Where the layouts live:
 *
 *  - Each wire type's layout is ONE field list, a `fields()` template in
 *    codec.cpp that the encoder and the decoder both visit; the field's
 *    C++ type picks its wire form (size_t u64, int64 i64, double f64,
 *    bool, string, Duration, optional, u32-counted vector, u8 enum).
 *    PowerProfile's columnar block is the one hand-written pair.
 *  - Only this codec knows frame payloads: the work request/result/done/
 *    error payloads, the cache entry and the cache key are built and
 *    parsed by the functions below, never field by field by their users.
 *  - Codec_test's GoldenWireBytes pins the bytes.  Any edit to a field
 *    list, a width or an order changes them and MUST bump kVersion —
 *    there is deliberately no per-field tagging; the version is the
 *    schema.
 *
 * What crosses the wire: ScenarioSpec (foreground kernel reference,
 * BackgroundLoad schedules, seeds, profiler options), MachineConfig
 * (so a worker rebuilds the exact node the driver would have), and
 * ProfileSet (SSE/SSP/timeline points including contention flags,
 * guidance/LOI-yield fields, sync calibration outputs).  A ScenarioSpec
 * carrying a custom profile_fn cannot cross the wire (a std::function
 * has no canonical bytes); encoding one is fatal and the FleetBackend
 * keeps such specs on the in-process path.
 */

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fingrav/profiler.hpp"
#include "fingrav/scenario.hpp"
#include "sim/machine_config.hpp"
#include "support/time_types.hpp"

namespace fingrav::core::codec {

/** "FGRV" in little-endian byte order. */
inline constexpr std::uint32_t kMagic = 0x56524746u;

/**
 * Schema version; bump on ANY layout change (docs/ARCHITECTURE.md).
 * v2: PowerProfile payloads are columnar — one contiguous little-endian
 * block per point field plus a packed contention bitmap, instead of
 * field-interleaved per-point records.
 * v3: control frames for persistent workers — kPing/kPong keepalive and
 * kShutdown — extend the frame-type range a v2 reader would reject.
 * v4: the frame checksum (and the cache's key hash) is XXH64 instead
 * of FNV-1a-64; the header layout is unchanged, but no v3 checksum
 * verifies.  Frame types 3-5 were renamed kWork* alongside (same
 * values).
 * v5: the checksum covers the header too — XXH64 of the payload, seeded
 * with XXH64 of magic, version, type and payload length — so a flipped
 * type field no longer yields another valid frame; MachineConfig lost
 * its node-stepping thread budget (stepping is serial).
 */
inline constexpr std::uint16_t kVersion = 5;

/** Frame payload types. */
enum class FrameType : std::uint16_t {
    kScenarioSpec = 1,  ///< one ScenarioSpec (tests, tooling)
    kProfileSet = 2,    ///< one ProfileSet (tests, tooling)
    kWorkRequest = 3,   ///< MachineConfig + [(slot, ScenarioSpec)]
    kWorkResult = 4,    ///< one (slot, ProfileSet) — streamed per spec
    kWorkDone = 5,      ///< u32 result count: clean request completion
    kWorkerError = 6,   ///< string: worker-side fatal diagnostic
    kCacheEntry = 7,    ///< key bytes + ProfileSet (on-disk campaign cache)
    kPing = 8,          ///< empty: driver keepalive probe to an idle worker
    kPong = 9,          ///< empty: worker liveness reply to kPing
    kShutdown = 10,     ///< empty: clean fleet-worker shutdown request
};

/** Printable frame-type name. */
const char* toString(FrameType type);

/**
 * Append-only canonical byte builder.  All integers little-endian,
 * doubles as IEEE-754 bit patterns, strings/vectors length-prefixed.
 */
class Encoder {
  public:
    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v);
    void f64(double v);
    void boolean(bool v);
    void str(const std::string& v);
    void duration(support::Duration v);

    /**
     * Bulk column writers (v2 profile frames): the whole vector as one
     * contiguous little-endian element block — on little-endian hosts a
     * single byte append, no per-element shifting.  The element count is
     * NOT written; the enclosing layout carries it once.
     */
    void f64Column(const std::vector<double>& v);
    void i64Column(const std::vector<std::int64_t>& v);
    void u64Column(const std::vector<std::uint64_t>& v);

    const std::vector<std::uint8_t>& bytes() const& { return bytes_; }
    std::vector<std::uint8_t> bytes() && { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/**
 * Bounds-checked reader over an encoded payload.  Every read that would
 * cross the end of the buffer throws support::FatalError ("truncated"),
 * as does any enum/length field outside its valid range — a corrupted
 * or foreign payload can never silently decode.
 */
class Decoder {
  public:
    Decoder(const std::uint8_t* data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Decoder(const std::vector<std::uint8_t>& buffer)
        : Decoder(buffer.data(), buffer.size())
    {
    }

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean();
    std::string str();
    support::Duration duration();

    /**
     * Bulk column readers (v2 profile frames): `n` little-endian
     * elements in one bounds check + block copy.  `n` must already have
     * passed checkedCount; truncation is fatal as usual.
     */
    std::vector<double> f64Column(std::size_t n);
    std::vector<std::int64_t> i64Column(std::size_t n);
    std::vector<std::uint64_t> u64Column(std::size_t n);

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

    /** True once the payload is fully consumed. */
    bool atEnd() const { return pos_ == size_; }

    /** Fail unless the payload was consumed exactly. */
    void expectEnd(const char* what) const;

  private:
    const std::uint8_t* need(std::size_t n);

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Whole values (tests, tooling, the perf bench)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode(const ScenarioSpec& spec);
std::vector<std::uint8_t> encode(const ProfileSet& set);
std::vector<std::uint8_t> encode(const sim::MachineConfig& cfg);
ScenarioSpec decodeScenarioSpec(const std::vector<std::uint8_t>& bytes);
ProfileSet decodeProfileSet(const std::vector<std::uint8_t>& bytes);
sim::MachineConfig decodeMachineConfig(
    const std::vector<std::uint8_t>& bytes);

// ---------------------------------------------------------------------------
// Frame payloads: the only code that knows their layouts
// ---------------------------------------------------------------------------

/** kWorkRequest: the node config and its slot-addressed specs. */
struct WorkRequest {
    sim::MachineConfig cfg;
    std::vector<std::pair<std::uint64_t, ScenarioSpec>> items;
};

/** kWorkResult: one spec's slot and its ProfileSet. */
struct WorkResult {
    std::uint64_t slot = 0;
    ProfileSet set;
};

/** kCacheEntry: the content key and the ProfileSet stored under it. */
struct CacheEntry {
    std::string key;
    ProfileSet set;
};

/** MachineConfig, then a u32-counted list of (u64 slot, ScenarioSpec). */
std::vector<std::uint8_t> encodeWorkRequest(
    const sim::MachineConfig& cfg,
    const std::vector<std::pair<std::uint64_t, ScenarioSpec>>& items);
WorkRequest decodeWorkRequest(const std::vector<std::uint8_t>& payload);

/** u64 slot, then the ProfileSet. */
std::vector<std::uint8_t> encodeWorkResult(std::uint64_t slot,
                                           const ProfileSet& set);
WorkResult decodeWorkResult(const std::vector<std::uint8_t>& payload);

/** u32 count of results the request produced. */
std::vector<std::uint8_t> encodeWorkDone(std::uint32_t count);
std::uint32_t decodeWorkDone(const std::vector<std::uint8_t>& payload);

/** The worker-side fatal diagnostic. */
std::vector<std::uint8_t> encodeWorkerError(const std::string& message);
std::string decodeWorkerError(const std::vector<std::uint8_t>& payload);

/**
 * The campaign cache's content key: u16 kVersion, ScenarioSpec,
 * MachineConfig.  The version is part of the address, so a bump
 * expires every cached result.
 */
std::string cacheKey(const ScenarioSpec& spec, const sim::MachineConfig& cfg);

/** A whole kCacheEntry frame (the on-disk blob): key bytes + ProfileSet. */
std::vector<std::uint8_t> encodeCacheEntry(const std::string& key,
                                           const ProfileSet& set);

/**
 * Verify a whole kCacheEntry frame and decode it in place.  Fatal on any
 * inconsistency: length, checksum, version, frame type, trailing bytes.
 */
CacheEntry decodeCacheEntry(const std::uint8_t* data, std::size_t size);

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/** magic(4) + version(2) + type(2) + payload_len(8) + checksum(8). */
inline constexpr std::size_t kFrameHeaderBytes = 24;

/** Parsed frame header (payload follows on the wire). */
struct FrameHeader {
    FrameType type = FrameType::kWorkDone;
    std::uint64_t payload_len = 0;
    std::uint64_t checksum = 0;
};

/**
 * XXH64 of `size` bytes under `seed`: the frame checksum and (seed 0)
 * the campaign cache's content-address hash.  Four 64-bit lanes over
 * 32-byte stripes with explicit little-endian loads, so the value is
 * the same on every host and matches the published xxHash vectors.
 */
std::uint64_t xxh64(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed = 0);

/**
 * Guard for wire-derived lengths/counts: fatal when `n` is implausibly
 * large (a corrupted field must never be trusted with an allocation).
 * Every length the codec decodes passes through it; a replica of an old
 * layout (bench_dataplane's v1 profiles) applies it to its own counts.
 */
std::uint64_t checkedCount(std::uint64_t n, const char* what);

/** Serialize header + payload into one wire buffer. */
std::vector<std::uint8_t> encodeFrame(
    FrameType type, const std::vector<std::uint8_t>& payload);

/**
 * Parse and validate a frame header; fatal on bad magic or a version
 * other than kVersion (the version-mismatch rejection contract).
 * `data` must hold kFrameHeaderBytes.
 */
FrameHeader decodeFrameHeader(const std::uint8_t* data);

/** Fatal unless header fields and payload match the header's checksum. */
void verifyFramePayload(const FrameHeader& header,
                        const std::uint8_t* payload);

/** One frame read off a stream. */
struct Frame {
    FrameType type = FrameType::kWorkDone;
    std::vector<std::uint8_t> payload;
};

/** Write one frame; returns false on stream failure. */
bool writeFrame(std::ostream& out, FrameType type,
                const std::vector<std::uint8_t>& payload);

/**
 * Read one frame.  Clean EOF on the frame boundary returns nullopt;
 * EOF inside a frame, bad magic, foreign version or checksum mismatch
 * is fatal.
 */
std::optional<Frame> readFrame(std::istream& in);

/**
 * Validate a whole in-memory frame in place: header, exact length
 * (header + payload_len == size) and frame checksum, all fatal on
 * failure.  The verified payload is the payload_len bytes after the
 * header, ready for a Decoder without a copy.
 */
FrameHeader verifyFrame(const std::uint8_t* data, std::size_t size);

/**
 * Header probe: true when `data` is a whole frame of `type` — the right
 * magic and a payload length matching `size` — written by a codec
 * version other than kVersion.  Its checksum is left unchecked: the
 * checksum algorithm is part of that version.
 */
bool foreignVersionFrame(const std::uint8_t* data, std::size_t size,
                         FrameType type);

}  // namespace fingrav::core::codec

#endif  // FINGRAV_FINGRAV_CODEC_HPP_
