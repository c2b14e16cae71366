/**
 * @file
 * Tiny command-line option parser used by examples and bench drivers.
 *
 * Supports `--flag`, `--key=value` and `--key value` forms plus
 * positional arguments. All lookups are typed with defaults so drivers
 * stay one-liners. Every lookup records its key, so a driver that has
 * read all its flags can reject the ones it never asked for
 * (rejectUnread()); read flags on one thread, before starting workers.
 */
#ifndef MLTC_UTIL_CLI_HPP
#define MLTC_UTIL_CLI_HPP

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace mltc {

/** Parsed command line: options (key -> last value) and positionals. */
class CommandLine
{
  public:
    /**
     * Parse argv. `--key=value` and `--key value` set options; a `--key`
     * followed by another option or end of argv becomes a boolean flag
     * with value "1". Everything else is positional.
     */
    CommandLine(int argc, const char *const *argv);

    /** True if --name was given (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name, or @p def if absent. */
    std::string getString(const std::string &name, const std::string &def) const;

    /**
     * Integer value of --name, or @p def if absent.
     * @throws mltc::Exception (BadArgument) naming the flag when the
     *         value has trailing junk, is not a number, or overflows —
     *         malformed input must never be silently truncated to a
     *         default or a wrapped value.
     */
    long getInt(const std::string &name, long def) const;

    /**
     * Non-negative integer value of --name, or @p def if absent.
     * @throws mltc::Exception (BadArgument) naming the flag on junk,
     *         overflow or a negative value.
     */
    unsigned long getUnsigned(const std::string &name,
                              unsigned long def) const;

    /**
     * Double value of --name, or @p def if absent.
     * @throws mltc::Exception (BadArgument) naming the flag on junk or
     *         overflow.
     */
    double getDouble(const std::string &name, double def) const;

    /** Boolean flag: present and not "0"/"false". */
    bool getFlag(const std::string &name) const;

    /**
     * Reject a flag no lookup has asked for (a misspelt `--frame 5`
     * would otherwise measure the default). Call it once every flag
     * has been read.
     * @throws mltc::Exception (BadArgument) naming the first such flag
     *         in command-line order.
     */
    void rejectUnread() const;

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    /** Look up --name and record that it was asked for. */
    const std::string *find(const std::string &name) const;

    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> order_; ///< option keys in argv order
    mutable std::set<std::string> read_;
    std::vector<std::string> positional_;
};

/**
 * Run a driver's argument parsing. A typed mltc::Exception or a
 * std::invalid_argument escaping @p parse is printed to stderr as
 * Error::describe(), so a bad value never aborts the process.
 * @return 0 when @p parse returns normally, else the usage exit
 *         status 2.
 */
int parseArguments(const std::function<void()> &parse);

} // namespace mltc

#endif // MLTC_UTIL_CLI_HPP
