/**
 * @file
 * Compatibility shim for the retired vector staging kernel.
 *
 * CacheSim::batchImpl() stages every span with one portable scalar
 * loop (docs/batched_access.md). The perfbench driver still reports an
 * "avx512_staging" field in its provenance JSON by calling
 * resolveStageRun(); this header exists only to keep that field
 * compiling, and the answer is always "no kernel".
 */
#ifndef MLTC_CORE_BATCH_STAGE_HPP
#define MLTC_CORE_BATCH_STAGE_HPP

namespace mltc::detail {

/** The vector staging kernel in use: always none (nullptr). */
inline const void *
resolveStageRun()
{
    return nullptr;
}

} // namespace mltc::detail

#endif // MLTC_CORE_BATCH_STAGE_HPP
