/**
 * @file
 * The procedural Village workload.
 *
 * Statistical stand-in for the E&S Village walk-through: an eye-level
 * camera loops through a small settlement of textured houses around a
 * central church. Key properties reproduced (paper Table 1 and §4):
 * textures are heavily *shared between objects* (a small pool of wall /
 * roof / ground materials), depth complexity is high (buildings overlap
 * along the view direction, texture-before-z), and the viewpoint moves
 * incrementally so the inter-frame working set drifts slowly.
 */
#ifndef MLTC_WORKLOAD_VILLAGE_HPP
#define MLTC_WORKLOAD_VILLAGE_HPP

#include <cstdint>

#include "workload/workload.hpp"

namespace mltc {

/** Tunables for the Village generator (defaults match the experiments). */
struct VillageParams
{
    uint64_t seed = 42;
    int houses = 96;          ///< houses placed along the streets
    int trees = 220;          ///< billboard trees
    bool fences = true;       ///< low yard walls (adds eye-level overdraw)
    float extent = 280.0f;    ///< ground square edge length (world units)
    uint32_t ground_texture_size = 512;
    uint32_t wall_texture_size = 512;
    int wall_texture_pool = 8; ///< distinct wall materials shared by houses
    int roof_texture_pool = 4;
    int default_frames = 411;  ///< the paper's Village animation length
};

/**
 * Build the Village workload. Deterministic in @p params.seed; the
 * textures are synthesized on @p pool plus the calling thread (serially
 * when null) and come out identical either way.
 */
Workload buildVillage(const VillageParams &params = {},
                      ThreadPool *pool = nullptr);

} // namespace mltc

#endif // MLTC_WORKLOAD_VILLAGE_HPP
