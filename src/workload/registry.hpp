/**
 * @file
 * Name-based workload lookup for the bench and example drivers.
 */
#ifndef MLTC_WORKLOAD_REGISTRY_HPP
#define MLTC_WORKLOAD_REGISTRY_HPP

#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace mltc {

/**
 * Names of the paper's workloads ("village", "city") — the set every
 * paper-table bench iterates over.
 */
std::vector<std::string> workloadNames();

/** All workloads including extensions ("terrain"). */
std::vector<std::string> allWorkloadNames();

/**
 * Check a --workload value before any work starts.
 * @throws mltc::Exception (BadArgument) naming @p name unless it is one
 *         of allWorkloadNames().
 */
void checkWorkloadName(const std::string &name);

/**
 * Build a workload by name ("village", "city", "terrain") at its
 * default parameters, synthesizing its textures on @p pool (see
 * buildVillage()).
 * @throws std::invalid_argument for unknown names.
 */
Workload buildWorkload(const std::string &name, ThreadPool *pool = nullptr);

} // namespace mltc

#endif // MLTC_WORKLOAD_REGISTRY_HPP
