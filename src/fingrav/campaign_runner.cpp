#include "fingrav/campaign_runner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "kernels/workloads.hpp"
#include "support/logging.hpp"

namespace fingrav::core {

namespace {

std::size_t
scenarioDevices(const ScenarioSpec& spec,
                const kernels::KernelModelPtr& kernel,
                const sim::MachineConfig& cfg)
{
    if (spec.devices != 0)
        return spec.devices;
    if (kernel->isCollective())
        return 0;  // full node
    // Non-collective foreground: one GPU, plus enough devices to host
    // every background kernel load — capped at the node size (a load on
    // a device the node does not have is rejected downstream).
    std::size_t devices = 1;
    for (const auto& load : spec.background) {
        if (load.kind == BackgroundKind::kKernel)
            devices = std::max(devices, load.device + 1);
    }
    return std::min(devices, cfg.node_gpus);
}

}  // namespace

CampaignNode::CampaignNode(const ScenarioSpec& spec,
                           const sim::MachineConfig& cfg)
    : kernel_(kernels::kernelByLabel(spec.label, cfg)),
      sim_(cfg, spec.seed, scenarioDevices(spec, kernel_, cfg)),
      host_(sim_, sim_.forkRng(7))
{
    // The background channel is armed off dedicated root stream 9; an
    // empty background list arms nothing, so an isolated scenario's node
    // is bitwise the pre-scenario node (forking is a pure function of
    // the root seed and never perturbs streams 7/8).
    host_.armBackground(buildBackgroundStreams(spec, sim_), sim_.forkRng(9));
}

CampaignRunner::CampaignRunner(std::size_t threads)
    : backend_(std::make_shared<ThreadPoolBackend>(threads))
{
    threads_ = static_cast<ThreadPoolBackend&>(*backend_).threads();
}

CampaignRunner::CampaignRunner(std::shared_ptr<ExecutionBackend> backend)
    : threads_(0), backend_(std::move(backend))
{
    if (!backend_)
        support::fatal("CampaignRunner: null execution backend");
}

ProfileSet
CampaignRunner::runOne(const ScenarioSpec& spec, const sim::MachineConfig& cfg)
{
    CampaignNode node(spec, cfg);
    if (spec.profile_fn) {
        return spec.profile_fn(node.host(), node.kernel(), spec.opts,
                               node.profilerRng());
    }
    return Profiler(node.host(), spec.opts, node.profilerRng())
        .profile(node.kernel());
}

std::vector<ProfileSet>
CampaignRunner::run(const std::vector<ScenarioSpec>& specs,
                    const sim::MachineConfig& cfg) const
{
    auto results = backend_->execute(specs, cfg);
    if (results.size() != specs.size()) {
        support::panic("execution backend '", backend_->name(),
                       "' returned ", results.size(), " results for ",
                       specs.size(), " specs");
    }
    return results;
}

namespace {

/** Bit-pattern equality: -0.0 differs from 0.0, a NaN equals itself. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Column equality over the raw element bytes (doubles by bit pattern). */
template <typename T>
bool
sameColumn(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

bool
identicalProfiles(const PowerProfile& a, const PowerProfile& b)
{
    return a.label() == b.label() && a.kind() == b.kind() &&
           a.size() == b.size() && sameColumn(a.toiUs(), b.toiUs()) &&
           sameColumn(a.toiFrac(), b.toiFrac()) &&
           sameColumn(a.runTimeUs(), b.runTimeUs()) &&
           sameColumn(a.gpuTimestamps(), b.gpuTimestamps()) &&
           sameColumn(a.railColumn(Rail::kTotal),
                      b.railColumn(Rail::kTotal)) &&
           sameColumn(a.railColumn(Rail::kXcd), b.railColumn(Rail::kXcd)) &&
           sameColumn(a.railColumn(Rail::kIod), b.railColumn(Rail::kIod)) &&
           sameColumn(a.railColumn(Rail::kHbm), b.railColumn(Rail::kHbm)) &&
           sameColumn(a.runIndices(), b.runIndices()) &&
           sameColumn(a.execIndices(), b.execIndices()) &&
           sameColumn(a.contendedWords(), b.contendedWords());
}

bool
identicalProfileSets(const ProfileSet& a, const ProfileSet& b)
{
    return a.label == b.label &&
           a.measured_exec_time == b.measured_exec_time &&
           a.guidance.exec_lo == b.guidance.exec_lo &&
           a.guidance.exec_hi == b.guidance.exec_hi &&
           a.guidance.runs == b.guidance.runs &&
           a.guidance.loi_per == b.guidance.loi_per &&
           sameBits(a.guidance.binning_margin, b.guidance.binning_margin) &&
           a.runs_executed == b.runs_executed &&
           a.binning.bin_center == b.binning.bin_center &&
           a.binning.golden_runs == b.binning.golden_runs &&
           a.binning.total_runs == b.binning.total_runs &&
           a.sse_exec_index == b.sse_exec_index &&
           a.ssp_exec_index == b.ssp_exec_index &&
           a.execs_per_run == b.execs_per_run &&
           a.ssp_exec_time == b.ssp_exec_time &&
           a.loi_target == b.loi_target &&
           sameBits(a.read_delay_us, b.read_delay_us) &&
           sameBits(a.drift_ppm, b.drift_ppm) &&
           identicalProfiles(a.sse, b.sse) &&
           identicalProfiles(a.ssp, b.ssp) &&
           identicalProfiles(a.timeline, b.timeline);
}

}  // namespace fingrav::core
