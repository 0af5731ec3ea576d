#ifndef PERFBENCH_ALLOC_COUNTER_HPP_
#define PERFBENCH_ALLOC_COUNTER_HPP_

#include <cstdint>

namespace perfbench {

/** Allocations seen by the counting operator new since process start. */
struct AllocCounts {
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/** Switch counting on for traced passes and off again afterwards. */
void setAllocCounting(bool on);

AllocCounts allocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_HPP_
