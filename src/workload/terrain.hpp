/**
 * @file
 * The Terrain workload — a "workload of the future" (paper §6, future
 * work #3).
 *
 * Where the Village and City stress texture *reuse*, Terrain stresses
 * texture *capacity*: one very large, uniquely-mapped satellite texture
 * drapes the whole landscape (no repetition, so block utilisation is
 * below 1 and the inter-frame working set is large), plus a handful of
 * detail materials. A low terrain-following flight keeps a wide swath of
 * the unique texture in view, pushing the working set well past a small
 * L2 and demonstrating where cache capacity starts to matter.
 */
#ifndef MLTC_WORKLOAD_TERRAIN_HPP
#define MLTC_WORKLOAD_TERRAIN_HPP

#include <cstdint>

#include "workload/workload.hpp"

namespace mltc {

/** Tunables for the Terrain generator. */
struct TerrainParams
{
    uint64_t seed = 2001;
    float extent = 1200.0f;      ///< terrain square edge (world units)
    int grid = 48;               ///< heightfield resolution per edge
    float height_amplitude = 55.0f;
    uint32_t satellite_texture_size = 2048; ///< the unique base texture
    int rocks = 40;              ///< detail boulders
    int default_frames = 450;
};

/**
 * Build the Terrain workload. Deterministic in @p params.seed; the
 * textures are synthesized on @p pool plus the calling thread (serially
 * when null) and come out identical either way.
 */
Workload buildTerrain(const TerrainParams &params = {},
                      ThreadPool *pool = nullptr);

} // namespace mltc

#endif // MLTC_WORKLOAD_TERRAIN_HPP
