/**
 * @file
 * Counting global operator new for the benchmark binary.
 *
 * Every heap allocation the process makes through operator new (the
 * library's vectors, strings, maps and node buffers) passes through
 * here: the standard library's array and nothrow forms call these two.
 * Counting is off unless a traced round switches it on, so an untraced
 * run pays one relaxed load per allocation.  Memory comes from malloc /
 * aligned_alloc and returns through free, as the default operators do.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_counter.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void
count(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
}

}  // namespace

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts
allocCounts()
{
    return {g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void*
operator new(std::size_t size)
{
    perfbench::count(size);
    if (void* p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    perfbench::count(size);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    if (void* p = std::aligned_alloc(a, ((size ? size : 1) + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
