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
    auto set = [this](const std::string &key, std::string value) {
        if (options_.count(key) == 0)
            order_.push_back(key);
        options_[key] = std::move(value);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (!isOption(arg)) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            set(body.substr(0, eq), body.substr(eq + 1));
            continue;
        }
        // `--key value` form: consume the next token unless it is itself
        // an option; otherwise this is a bare flag.
        if (i + 1 < argc && !isOption(argv[i + 1])) {
            set(body, argv[++i]);
        } else {
            set(body, "1");
        }
    }
}

const std::string *
CommandLine::find(const std::string &name) const
{
    read_.insert(name);
    auto it = options_.find(name);
    return it == options_.end() ? nullptr : &it->second;
}

bool
CommandLine::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
CommandLine::getString(const std::string &name, const std::string &def) const
{
    const std::string *v = find(name);
    return v ? *v : def;
}

long
CommandLine::getInt(const std::string &name, long def) const
{
    const std::string *v = find(name);
    return v ? parseLong(name, *v) : def;
}

unsigned long
CommandLine::getUnsigned(const std::string &name, unsigned long def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    const long n = parseLong(name, *v);
    if (n < 0)
        badValue(name, *v, "must be non-negative");
    return static_cast<unsigned long>(n);
}

double
CommandLine::getDouble(const std::string &name, double def) const
{
    const std::string *v = find(name);
    if (!v)
        return def;
    errno = 0;
    char *end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        badValue(name, *v, "not a number");
    if (errno == ERANGE)
        badValue(name, *v, "number out of range");
    return d;
}

bool
CommandLine::getFlag(const std::string &name) const
{
    const std::string *v = find(name);
    return v && *v != "0" && *v != "false";
}

void
CommandLine::rejectUnread() const
{
    for (const std::string &key : order_)
        if (read_.count(key) == 0)
            throw Exception(ErrorCode::BadArgument,
                            "--" + key + ": unknown flag");
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
