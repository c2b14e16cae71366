/**
 * @file
 * The procedural City workload.
 *
 * Statistical stand-in for the UCLA City fly-through: a regular downtown
 * grid of towers overflown by a swooping camera. Key properties
 * reproduced (paper Table 1 and §4): each building carries its *own*
 * facade texture (the paper notes the City "does not substantially reuse
 * textures between objects" — only repeats them within an object), depth
 * complexity is moderate (~2), and high altitude gives strong
 * minification, so the per-frame texture footprint is small and drifts
 * very slowly.
 */
#ifndef MLTC_WORKLOAD_CITY_HPP
#define MLTC_WORKLOAD_CITY_HPP

#include <cstdint>

#include "workload/workload.hpp"

namespace mltc {

/** Tunables for the City generator (defaults match the experiments). */
struct CityParams
{
    uint64_t seed = 1998;
    int blocks_x = 10;         ///< building grid
    int blocks_z = 10;
    float block_spacing = 24.0f;
    float footprint = 14.0f;   ///< building base edge
    uint32_t facade_texture_size = 128; ///< per-building facade
    int large_facades = 8;     ///< buildings upgraded to 256^2 facades
    int default_frames = 525;  ///< the paper's City animation length
};

/**
 * Build the City workload. Deterministic in @p params.seed; the
 * textures are synthesized on @p pool plus the calling thread (serially
 * when null) and come out identical either way.
 */
Workload buildCity(const CityParams &params = {}, ThreadPool *pool = nullptr);

} // namespace mltc

#endif // MLTC_WORKLOAD_CITY_HPP
