/**
 * @file
 * Build provenance shared by every perf-bearing artifact.
 *
 * Perf numbers are meaningless without knowing what produced them, so
 * the bench JSON (`BENCH_perf.json`), the telemetry run manifest
 * (`/runz`) and every profile JSON header carry the same provenance
 * object:
 *
 *     {"git_sha":"6cd607c...","compiler":"gcc 13.2.0",
 *      "flags":"-O2 ... (Release)","cpu_model":"AMD EPYC ...",
 *      "cores":32}
 *
 * git SHA and flags are baked in at configure time (CMake writes
 * MLTC_GIT_SHA / MLTC_BUILD_FLAGS into a generated header that only
 * build_info.cpp includes). The git HEAD, the ref it names and
 * packed-refs are configure dependencies, so a commit or checkout
 * reconfigures on the next build and only build_info.cpp recompiles;
 * the SHA is HEAD at the last build, which need not match uncommitted
 * edits. Compiler identity comes from the
 * compiler's own macros; CPU model and core count are read once at
 * runtime, so the same binary reports correctly when moved between
 * machines.
 */
#ifndef MLTC_UTIL_BUILD_INFO_HPP
#define MLTC_UTIL_BUILD_INFO_HPP

#include <string>

#include "util/json.hpp"

namespace mltc {

/** Resolved provenance of this binary on this machine. */
struct BuildInfo
{
    std::string git_sha;   ///< configure-time HEAD ("unknown" outside git)
    std::string compiler;  ///< e.g. "gcc 13.2.0" / "clang 17.0.6"
    std::string flags;     ///< CMAKE_CXX_FLAGS + build type
    std::string cpu_model; ///< /proc/cpuinfo model name ("unknown" elsewhere)
    unsigned cores = 0;    ///< std::thread::hardware_concurrency()
};

/** The process-wide provenance, resolved once on first use. */
const BuildInfo &buildInfo();

/**
 * Append the provenance as one JSON object value. The caller supplies
 * the position (typically `w.key("build")` first).
 */
void appendBuildInfo(JsonWriter &w);

/** The provenance as a standalone JSON object string. */
std::string buildInfoJson();

} // namespace mltc

#endif // MLTC_UTIL_BUILD_INFO_HPP
