#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/error.hpp"

namespace mltc {

namespace {

bool
isOption(const std::string &arg)
{
    return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

[[noreturn]] void
badValue(const std::string &name, const std::string &value,
         const char *why)
{
    throw Exception(ErrorCode::BadArgument, "--" + name + ": " + why +
                                                ": '" + value + "'");
}

long
parseLong(const std::string &name, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        badValue(name, value, "not an integer");
    if (errno == ERANGE)
        badValue(name, value, "integer out of range");
    return v;
}

} // namespace

CommandLine::CommandLine(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!isOption(arg)) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` form: consume the next token unless it is itself
        // an option; otherwise this is a bare flag.
        if (i + 1 < argc && !isOption(argv[i + 1])) {
            options_[body] = argv[++i];
        } else {
            options_[body] = "1";
        }
    }
}

bool
CommandLine::has(const std::string &name) const
{
    return options_.count(name) != 0;
}

std::string
CommandLine::getString(const std::string &name, const std::string &def) const
{
    auto it = options_.find(name);
    return it == options_.end() ? def : it->second;
}

long
CommandLine::getInt(const std::string &name, long def) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return def;
    return parseLong(name, it->second);
}

unsigned long
CommandLine::getUnsigned(const std::string &name, unsigned long def) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return def;
    const long v = parseLong(name, it->second);
    if (v < 0)
        badValue(name, it->second, "must be non-negative");
    return static_cast<unsigned long>(v);
}

double
CommandLine::getDouble(const std::string &name, double def) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return def;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        badValue(name, it->second, "not a number");
    if (errno == ERANGE)
        badValue(name, it->second, "number out of range");
    return v;
}

bool
CommandLine::getFlag(const std::string &name) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return false;
    return it->second != "0" && it->second != "false";
}

int
parseArguments(const std::function<void()> &parse)
{
    try {
        parse();
        return 0;
    } catch (const Exception &e) {
        std::fprintf(stderr, "%s\n", e.error().describe().c_str());
    } catch (const std::invalid_argument &e) {
        const Error error{ErrorCode::BadArgument, e.what()};
        std::fprintf(stderr, "%s\n", error.describe().c_str());
    }
    return 2;
}

} // namespace mltc
