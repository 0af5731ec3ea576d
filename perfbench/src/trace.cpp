#include "trace.hpp"

#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>

namespace perfbench {

std::int64_t
nowNs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

Tracer&
tracer()
{
    static Tracer t;
    return t;
}

int
Tracer::begin(std::string name, const char* layer, std::uint64_t request)
{
    Span s;
    s.name = std::move(name);
    s.layer = layer;
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request != 0 || s.parent < 0 ? request
                                              : spans_[s.parent].request;
    s.start_ns = nowNs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    spans_[id].end_ns = nowNs();
    // Scopes close in LIFO order, so the span is the innermost open one.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::map<std::string, double>
Tracer::requestSelfSeconds() const
{
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    std::vector<char> timed(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end_ns < 0)
            continue;
        if (s.parent >= 0) {
            child_ns[s.parent] += s.end_ns - s.start_ns;
            const Span& p = spans_[s.parent];
            // Parents precede children, so timed[] of the parent is set.
            timed[i] = timed[s.parent] ||
                       (std::strcmp(s.layer, layer::kBench) == 0 &&
                        std::strcmp(p.layer, layer::kWorkload) == 0);
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (!timed[i] || s.end_ns < 0)
            continue;
        self[s.layer] +=
            static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    }
    return self;
}

namespace {

void
writeJsonString(std::ostream& out, const std::string& s)
{
    out << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out << ' ';
        else
            out << c;
    }
    out << '"';
}

}  // namespace

bool
Tracer::writeChrome(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::fixed << std::setprecision(3)
        << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const Span& s : spans_) {
        if (s.end_ns < 0)
            continue;
        out << (first ? "" : ",\n") << "{\"name\":";
        writeJsonString(out, s.name);
        out << ",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":1,"
            << "\"tid\":1,\"ts\":" << static_cast<double>(s.start_ns) / 1e3
            << ",\"dur\":"
            << static_cast<double>(s.end_ns - s.start_ns) / 1e3
            << ",\"args\":{\"request\":" << s.request << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
