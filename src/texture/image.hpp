/**
 * @file
 * In-memory 32-bit RGBA image, the storage unit for one MIP level.
 *
 * Texels are packed 0xAABBGGRR (R in the low byte) as the accelerator's
 * expanded 32-bit cache format (paper §3.2). The depth a texture occupies
 * in *host* memory (its "original depth") is tracked separately by
 * TextureManager.
 */
#ifndef MLTC_TEXTURE_IMAGE_HPP
#define MLTC_TEXTURE_IMAGE_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/page_allocator.hpp"

namespace mltc {

/** Pack 8-bit channels into the texel format. */
constexpr uint32_t
packRgba(uint8_t r, uint8_t g, uint8_t b, uint8_t a = 255)
{
    return static_cast<uint32_t>(r) | (static_cast<uint32_t>(g) << 8) |
           (static_cast<uint32_t>(b) << 16) | (static_cast<uint32_t>(a) << 24);
}

/** Extract one channel (0=R,1=G,2=B,3=A) from a packed texel. */
constexpr uint8_t
channel(uint32_t texel, int c)
{
    return static_cast<uint8_t>((texel >> (8 * c)) & 0xff);
}

/** Power-of-two check used to validate texture dimensions. */
constexpr bool
isPowerOfTwo(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer log2 of a power of two. */
constexpr uint32_t
log2u(uint32_t v)
{
    uint32_t r = 0;
    while (v > 1) {
        v >>= 1;
        ++r;
    }
    return r;
}

/**
 * Row-major 32-bit image. Dimensions must be powers of two so the MIP
 * chain and tiled addressing are exact.
 */
class Image
{
  public:
    /** Empty 0x0 image. */
    Image() = default;

    /** Allocate a width x height image filled with @p fill. */
    Image(uint32_t width, uint32_t height, uint32_t fill = 0);

    uint32_t width() const { return width_; }
    uint32_t height() const { return height_; }

    /** Texel at (x, y); coordinates must be in range. */
    uint32_t
    texel(uint32_t x, uint32_t y) const
    {
        assert(x < width_ && y < height_);
        return data_[static_cast<size_t>(y) * width_ + x];
    }

    /** Texel at (x, y) with repeat wrapping (dims are powers of two). */
    uint32_t
    texelWrapped(int32_t x, int32_t y) const
    {
        uint32_t ux = static_cast<uint32_t>(x) & (width_ - 1);
        uint32_t uy = static_cast<uint32_t>(y) & (height_ - 1);
        return data_[static_cast<size_t>(uy) * width_ + ux];
    }

    /** Set texel at (x, y). */
    void
    setTexel(uint32_t x, uint32_t y, uint32_t value)
    {
        assert(x < width_ && y < height_);
        data_[static_cast<size_t>(y) * width_ + x] = value;
    }

    /** Texel storage: large images are mapped pages (PageAllocator). */
    using Storage = std::vector<uint32_t, PageAllocator<uint32_t>>;

    /** Raw texel storage (row-major). */
    const Storage &data() const { return data_; }

    /** Size in bytes at 32 bits per texel. */
    size_t
    bytes() const
    {
        return data_.size() * sizeof(uint32_t);
    }

  private:
    uint32_t width_ = 0;
    uint32_t height_ = 0;
    Storage data_;
};

} // namespace mltc

#endif // MLTC_TEXTURE_IMAGE_HPP
