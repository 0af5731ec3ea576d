#include "support/fault_injector.hpp"

#include <cctype>
#include <sstream>

#include "support/logging.hpp"

namespace fingrav::support {

namespace {

std::string
trim(const std::string& text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string& text, char sep)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream iss(text);
    while (std::getline(iss, part, sep))
        parts.push_back(part);
    return parts;
}

FaultKind
kindFromName(const std::string& name, const std::string& plan_text)
{
    if (name == "spawn-fail")
        return FaultKind::kSpawnFail;
    if (name == "kill")
        return FaultKind::kKillWorker;
    if (name == "truncate")
        return FaultKind::kTruncateFrame;
    if (name == "corrupt")
        return FaultKind::kCorruptFrame;
    if (name == "stall")
        return FaultKind::kStallPipe;
    if (name == "store-short")
        return FaultKind::kShortStoreWrite;
    fatal("fault plan \"", plan_text, "\": unknown fault \"", name,
          "\" (expected spawn-fail|kill|truncate|corrupt|stall|store-short)");
}

long
parseValue(const std::string& key, const std::string& value,
           const std::string& plan_text)
{
    if (value == "*")
        return FaultAction::kAny;
    if (value.empty())
        fatal("fault plan \"", plan_text, "\": empty value for key \"", key,
              "\"");
    for (char c : value) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fatal("fault plan \"", plan_text, "\": value \"", value,
                  "\" for key \"", key,
                  "\" is not a non-negative integer or '*'");
    }
    try {
        return std::stol(value);
    } catch (const std::exception&) {
        fatal("fault plan \"", plan_text, "\": value \"", value,
              "\" for key \"", key, "\" is out of range");
    }
}

bool
isWorkerSite(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kKillWorker:
      case FaultKind::kTruncateFrame:
      case FaultKind::kCorruptFrame:
      case FaultKind::kStallPipe:
        return true;
      case FaultKind::kSpawnFail:
      case FaultKind::kShortStoreWrite:
        return false;
    }
    return false;
}

bool
matches(long coordinate, std::size_t value)
{
    return coordinate == FaultAction::kAny ||
           coordinate == static_cast<long>(value);
}

std::string
coordinateToString(long coordinate)
{
    if (coordinate == FaultAction::kAny)
        return "*";
    return std::to_string(coordinate);
}

/** Serialize one action; optionally drop driver coordinates (the
 *  worker-side sub-plan never carries seat/attempt). */
std::string
serializeAction(const FaultAction& action, bool strip_driver_coords)
{
    std::ostringstream oss;
    oss << toString(action.kind);
    std::vector<std::string> keys;
    if (!strip_driver_coords) {
        if (action.seat != FaultAction::kAny)
            keys.push_back("seat=" + coordinateToString(action.seat));
        if (action.attempt != 0)
            keys.push_back("attempt=" + coordinateToString(action.attempt));
    }
    if (isWorkerSite(action.kind) && action.frame != 0)
        keys.push_back("frame=" + coordinateToString(action.frame));
    if (action.kind == FaultKind::kStallPipe)
        keys.push_back("ms=" + std::to_string(action.stall_ms));
    if (action.times != 1)
        keys.push_back("times=" + coordinateToString(action.times));
    for (std::size_t k = 0; k < keys.size(); ++k)
        oss << (k == 0 ? ":" : ",") << keys[k];
    return oss.str();
}

}  // namespace

const char*
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kSpawnFail:
        return "spawn-fail";
      case FaultKind::kKillWorker:
        return "kill";
      case FaultKind::kTruncateFrame:
        return "truncate";
      case FaultKind::kCorruptFrame:
        return "corrupt";
      case FaultKind::kStallPipe:
        return "stall";
      case FaultKind::kShortStoreWrite:
        return "store-short";
    }
    return "unknown";
}

FaultPlan
FaultPlan::parse(const std::string& text)
{
    FaultPlan plan;
    for (const std::string& raw_action : split(text, ';')) {
        const std::string action_text = trim(raw_action);
        if (action_text.empty())
            continue;  // tolerate trailing / doubled separators

        FaultAction action;
        const std::size_t colon = action_text.find(':');
        action.kind =
            kindFromName(trim(action_text.substr(0, colon)), text);

        if (colon != std::string::npos) {
            for (const std::string& raw_pair :
                 split(action_text.substr(colon + 1), ',')) {
                const std::string pair = trim(raw_pair);
                const std::size_t eq = pair.find('=');
                if (eq == std::string::npos)
                    fatal("fault plan \"", text, "\": \"", pair,
                          "\" is not key=value");
                const std::string key = trim(pair.substr(0, eq));
                const long value =
                    parseValue(key, trim(pair.substr(eq + 1)), text);
                if (key == "seat") {
                    action.seat = value;
                } else if (key == "attempt") {
                    action.attempt = value;
                } else if (key == "frame") {
                    action.frame = value;
                } else if (key == "ms") {
                    action.stall_ms = value;
                } else if (key == "times") {
                    action.times = value;
                } else {
                    fatal("fault plan \"", text, "\": unknown key \"", key,
                          "\" (expected seat|frame|attempt|ms|times)");
                }
            }
        }
        plan.actions.push_back(action);
    }
    return plan;
}

std::string
FaultPlan::toString() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < actions.size(); ++i)
        oss << (i == 0 ? "" : ";")
            << serializeAction(actions[i], /*strip_driver_coords=*/false);
    return oss.str();
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), fired_(plan_.actions.size(), 0)
{
}

bool
FaultInjector::onSpawn(std::size_t seat, std::size_t attempt)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
        const FaultAction& action = plan_.actions[i];
        if (action.kind != FaultKind::kSpawnFail)
            continue;
        if (!matches(action.seat, seat) ||
            !matches(action.attempt, attempt))
            continue;
        if (action.times != FaultAction::kAny && fired_[i] >= action.times)
            continue;
        ++fired_[i];
        return true;
    }
    return false;
}

std::string
FaultInjector::workerPlan(std::size_t seat, std::size_t attempt) const
{
    // Pure derivation from the plan script — a worker sub-plan depends
    // only on (seat, attempt) coordinates, never on what already fired,
    // so the schedule of injected worker faults is deterministic.
    std::ostringstream oss;
    bool first = true;
    for (const FaultAction& action : plan_.actions) {
        if (!isWorkerSite(action.kind))
            continue;
        if (!matches(action.seat, seat) ||
            !matches(action.attempt, attempt))
            continue;
        oss << (first ? "" : ";")
            << serializeAction(action, /*strip_driver_coords=*/true);
        first = false;
    }
    return oss.str();
}

std::optional<FrameFault>
FaultInjector::onResultFrame(std::size_t frame)
{
    // Worker-site coordinates are frame-only: seat/attempt were already
    // resolved by the driver when it derived this worker's sub-plan.
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
        const FaultAction& action = plan_.actions[i];
        if (!isWorkerSite(action.kind))
            continue;
        if (!matches(action.frame, frame))
            continue;
        if (action.times != FaultAction::kAny && fired_[i] >= action.times)
            continue;
        ++fired_[i];
        return FrameFault{action.kind, action.stall_ms};
    }
    return std::nullopt;
}

bool
FaultInjector::onStoreWrite()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
        const FaultAction& action = plan_.actions[i];
        if (action.kind != FaultKind::kShortStoreWrite)
            continue;
        if (action.times != FaultAction::kAny && fired_[i] >= action.times)
            continue;
        ++fired_[i];
        return true;
    }
    return false;
}

}  // namespace fingrav::support
