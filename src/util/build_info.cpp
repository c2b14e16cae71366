#include "util/build_info.hpp"

#include <cstdio>
#include <cstring>
#include <thread>

#include "build_provenance.hpp" // generated: MLTC_GIT_SHA, MLTC_BUILD_FLAGS

namespace mltc {

namespace {

std::string
compilerIdent()
{
#if defined(__clang__)
    return "clang " + std::to_string(__clang_major__) + "." +
           std::to_string(__clang_minor__) + "." +
           std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
    return "gcc " + std::to_string(__GNUC__) + "." +
           std::to_string(__GNUC_MINOR__) + "." +
           std::to_string(__GNUC_PATCHLEVEL__);
#else
    return "unknown";
#endif
}

/** First "model name : ..." line of /proc/cpuinfo, if the OS has one. */
std::string
cpuModel()
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "model name", 10) != 0)
            continue;
        const char *colon = std::strchr(line, ':');
        if (!colon)
            continue;
        ++colon;
        while (*colon == ' ' || *colon == '\t')
            ++colon;
        model = colon;
        while (!model.empty() &&
               (model.back() == '\n' || model.back() == '\r'))
            model.pop_back();
        break;
    }
    std::fclose(f);
    return model;
}

BuildInfo
resolve()
{
    BuildInfo info;
    info.git_sha = MLTC_GIT_SHA;
    info.compiler = compilerIdent();
    info.flags = MLTC_BUILD_FLAGS;
    info.cpu_model = cpuModel();
    info.cores = std::thread::hardware_concurrency();
    return info;
}

} // namespace

const BuildInfo &
buildInfo()
{
    static const BuildInfo info = resolve();
    return info;
}

void
appendBuildInfo(JsonWriter &w)
{
    const BuildInfo &b = buildInfo();
    w.beginObject()
        .kv("git_sha", b.git_sha)
        .kv("compiler", b.compiler)
        .kv("flags", b.flags)
        .kv("cpu_model", b.cpu_model)
        .kv("cores", static_cast<uint64_t>(b.cores))
        .endObject();
}

std::string
buildInfoJson()
{
    JsonWriter w;
    appendBuildInfo(w);
    return w.str();
}

} // namespace mltc
