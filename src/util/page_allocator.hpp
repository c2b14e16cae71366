/**
 * @file
 * Allocator that maps large buffers straight from the operating system.
 *
 * malloc keeps freed memory in the arena of the thread that allocated
 * it, and glibc raises its mmap threshold once a large mapped block is
 * freed, so later large blocks come from the arenas too. Textures
 * synthesized on pool workers would then leave each worker's arena
 * holding whatever texture memory it last served: freeing a workload
 * would keep its pages resident, and every rebuild would spread them
 * over the arenas anew. PageAllocator maps every block of at least
 * kDirectBytes with mmap and unmaps it on free, so a large buffer's
 * pages live exactly as long as the buffer, whichever thread made it.
 * Smaller blocks use operator new.
 */
#ifndef MLTC_UTIL_PAGE_ALLOCATOR_HPP
#define MLTC_UTIL_PAGE_ALLOCATOR_HPP

#include <cstddef>
#include <new>

namespace mltc {

namespace detail {

/** Blocks at least this large are mapped directly. */
inline constexpr std::size_t kDirectBytes = 128 * 1024;

/** Map @p bytes of zeroed memory; throws std::bad_alloc on failure. */
void *mapPages(std::size_t bytes);

/** Unmap a block mapPages(@p bytes) returned. */
void unmapPages(void *p, std::size_t bytes) noexcept;

} // namespace detail

/** std::allocator replacement; see file comment. */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= detail::kDirectBytes)
            return static_cast<T *>(detail::mapPages(bytes));
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= detail::kDirectBytes)
            detail::unmapPages(p, bytes);
        else
            ::operator delete(p);
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

} // namespace mltc

#endif // MLTC_UTIL_PAGE_ALLOCATOR_HPP
