#ifndef PERFBENCH_TRACE_HPP_
#define PERFBENCH_TRACE_HPP_

/**
 * @file
 * The benchmark's own spans, recorded around each public library call.
 *
 * Spans nest workload -> request (campaign, sweep point or batch) ->
 * layer call; a span's layer is the module whose public function it
 * wraps.  Spans stay in memory and are written out once, as Chrome
 * trace-event JSON, when the run ends.  A layer's self time is its
 * span's duration minus the part its child spans cover.  Recording is
 * off unless a traced pass switches it on; an off tracer records
 * nothing.  Single-threaded: the benchmark drives one client.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Layer names shared by spans, share metrics and the summary table. */
namespace layer {
inline constexpr const char* kWorkload = "workload";
inline constexpr const char* kBench = "bench";
inline constexpr const char* kSim = "sim";
inline constexpr const char* kProfiler = "profiler";
inline constexpr const char* kRecorded = "recorded_campaign";
inline constexpr const char* kCodec = "codec";
inline constexpr const char* kCache = "campaign_cache";
inline constexpr const char* kFleet = "worker_fleet";
inline constexpr const char* kCheck = "check";
}  // namespace layer

struct Span {
    std::string name;
    const char* layer = layer::kBench;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;
    std::uint64_t request = 0;  ///< shared by the spans of one request
};

class Tracer {
  public:
    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** Open a span under the innermost open one; -1 when off. */
    int begin(std::string name, const char* layer, std::uint64_t request);
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /**
     * Self seconds per layer over the closed spans that sit under a
     * request span (layer::kBench directly under a workload root), so
     * untimed verification spans never count.
     */
    std::map<std::string, double> requestSelfSeconds() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string& path) const;

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

Tracer& tracer();

/** Monotonic nanoseconds since process start. */
std::int64_t nowNs();

/** RAII span; free when tracing is off. */
class Scope {
  public:
    Scope(const char* name, const char* layer, std::uint64_t request = 0)
        : id_(tracer().on() ? tracer().begin(name, layer, request) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            tracer().end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP_
