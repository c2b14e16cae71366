#include "workload/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/error.hpp"
#include "workload/city.hpp"
#include "workload/terrain.hpp"
#include "workload/village.hpp"

namespace mltc {

std::vector<std::string>
workloadNames()
{
    return {"village", "city"};
}

std::vector<std::string>
allWorkloadNames()
{
    return {"village", "city", "terrain"};
}

void
checkWorkloadName(const std::string &name)
{
    const std::vector<std::string> names = allWorkloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end())
        throw Exception(ErrorCode::BadArgument,
                        "--workload: unknown workload '" + name +
                            "' (expected village, city or terrain)");
}

Workload
buildWorkload(const std::string &name, ThreadPool *pool)
{
    if (name == "village")
        return buildVillage({}, pool);
    if (name == "city")
        return buildCity({}, pool);
    if (name == "terrain")
        return buildTerrain({}, pool);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace mltc
