#include "kernels/workloads.hpp"

#include <charconv>
#include <memory>
#include <string_view>
#include <vector>

#include "support/logging.hpp"

namespace fingrav::kernels {

using support::literals::operator""_KB;
using support::literals::operator""_MB;
using support::literals::operator""_GB;

KernelModelPtr
makeSquareGemm(std::int64_t edge, const sim::MachineConfig& cfg)
{
    GemmShape s;
    s.m = edge;
    s.n = edge;
    s.k = edge;
    return std::make_shared<GemmKernel>(s, cfg);
}

KernelModelPtr
makeGemv(std::int64_t edge, const sim::MachineConfig& cfg)
{
    GemmShape s;
    s.m = edge;
    s.n = 1;
    s.k = edge;
    return std::make_shared<GemmKernel>(s, cfg);
}

KernelModelPtr
makeCollective(CollectiveOp op, support::Bytes bytes,
               const sim::MachineConfig& cfg)
{
    return std::make_shared<CollectiveKernel>(op, bytes, cfg);
}

std::vector<KernelModelPtr>
paperGemmKernels(const sim::MachineConfig& cfg)
{
    std::vector<KernelModelPtr> out;
    for (std::int64_t edge : {8192, 4096, 2048}) {
        out.push_back(makeSquareGemm(edge, cfg));
    }
    for (std::int64_t edge : {8192, 4096, 2048}) {
        out.push_back(makeGemv(edge, cfg));
    }
    return out;
}

std::vector<KernelModelPtr>
paperCollectiveKernels(const sim::MachineConfig& cfg)
{
    std::vector<KernelModelPtr> out;
    for (auto op : {CollectiveOp::kAllGather, CollectiveOp::kAllReduce}) {
        for (support::Bytes bytes :
             {64_KB, 128_KB, 512_MB, 1_GB}) {
            out.push_back(makeCollective(op, bytes, cfg));
        }
    }
    return out;
}

std::vector<KernelModelPtr>
paperKernels(const sim::MachineConfig& cfg)
{
    auto out = paperGemmKernels(cfg);
    auto comms = paperCollectiveKernels(cfg);
    out.insert(out.end(), comms.begin(), comms.end());
    return out;
}

namespace {

/**
 * The comma-separated fields of a shorthand body, each a positive
 * decimal integer filling its whole field; fatal (naming the spec)
 * on a wrong field count, an empty or signed field, trailing junk, zero
 * or an int64 overflow.
 */
std::vector<std::int64_t>
shorthandFields(std::string_view body, std::size_t count,
                const std::string& spec)
{
    std::vector<std::int64_t> out;
    while (true) {
        const auto comma = body.find(',');
        const auto field = body.substr(0, comma);
        std::int64_t value = 0;
        const char* end = field.data() + field.size();
        const auto [ptr, ec] = std::from_chars(field.data(), end, value);
        if (ec != std::errc() || ptr != end || value <= 0) {
            support::fatal("kernelByLabel: bad kernel spec '", spec,
                           "': '", field,
                           "' is not a positive integer that fits int64");
        }
        out.push_back(value);
        if (comma == std::string_view::npos)
            break;
        body.remove_prefix(comma + 1);
    }
    if (out.size() != count) {
        support::fatal("kernelByLabel: bad kernel spec '", spec, "': needs ",
                       count, " comma-separated field(s), got ", out.size());
    }
    return out;
}

/** Fatal (naming the spec) when `bytes` exceeds the node's HBM. */
void
requireFitsHbm(std::int64_t bytes, const sim::MachineConfig& cfg,
               const std::string& spec)
{
    if (bytes > cfg.hbm_capacity) {
        support::fatal("kernelByLabel: kernel spec '", spec,
                       "': working set of ", bytes, " bytes exceeds the ",
                       cfg.hbm_capacity, "-byte HBM capacity");
    }
}

/**
 * The shorthand's GEMM, once its working set (GemmKernel::
 * workingSetBytes, computed here overflow-checked) is known to fit
 * int64 and the node's HBM.
 */
KernelModelPtr
checkedGemm(const GemmShape& s, const sim::MachineConfig& cfg,
            const std::string& spec)
{
    std::int64_t mk = 0;
    std::int64_t kn = 0;
    std::int64_t mn = 0;
    std::int64_t elems = 0;
    std::int64_t bytes = 0;
    if (__builtin_mul_overflow(s.m, s.k, &mk) ||
        __builtin_mul_overflow(s.k, s.n, &kn) ||
        __builtin_mul_overflow(s.m, s.n, &mn) ||
        __builtin_add_overflow(mk, kn, &elems) ||
        __builtin_add_overflow(elems, mn, &elems) ||
        __builtin_mul_overflow(elems, std::int64_t{s.dtype_bytes}, &bytes)) {
        support::fatal("kernelByLabel: kernel spec '", spec,
                       "': working set overflows int64");
    }
    requireFitsHbm(bytes, cfg, spec);
    return std::make_shared<GemmKernel>(s, cfg);
}

}  // namespace

KernelModelPtr
kernelByLabel(const std::string& label, const sim::MachineConfig& cfg)
{
    const std::string_view spec(label);
    if (spec.starts_with("gemm:")) {
        const auto f = shorthandFields(spec.substr(5), 3, label);
        GemmShape shape;
        shape.m = f[0];
        shape.n = f[1];
        shape.k = f[2];
        return checkedGemm(shape, cfg, label);
    }
    if (spec.starts_with("gemv:")) {
        GemmShape shape;
        shape.m = shorthandFields(spec.substr(5), 1, label)[0];
        shape.n = 1;
        shape.k = shape.m;
        return checkedGemm(shape, cfg, label);
    }
    if (spec.starts_with("ag:") || spec.starts_with("ar:")) {
        const auto bytes = shorthandFields(spec.substr(3), 1, label)[0];
        requireFitsHbm(bytes, cfg, label);
        return makeCollective(spec[1] == 'g' ? CollectiveOp::kAllGather
                                             : CollectiveOp::kAllReduce,
                              bytes, cfg);
    }

    const auto all = paperKernels(cfg);
    for (auto& k : all) {
        if (k->label() == label)
            return k;
    }
    std::string available;
    for (const auto& k : all) {
        if (!available.empty())
            available += ", ";
        available += k->label();
    }
    support::fatal("kernelByLabel: unknown kernel '", label,
                   "'; available paper labels: ", available);
}

}  // namespace fingrav::kernels
