/**
 * @file
 * Minimal command-line flag parser shared by the bench binaries and
 * the example applications. Supports "--name value", "--name=value",
 * and boolean "--name" forms. Programs read every flag they accept up
 * front, then call rejectUnread(), so a misspelt or retired flag is a
 * clean fatal instead of being silently ignored.
 */

#ifndef ADYNA_COMMON_CLI_HH
#define ADYNA_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace adyna {

/** Parsed command-line flags with typed, defaulted accessors. */
class CliArgs
{
  public:
    /**
     * Parse argv. Unknown positional arguments are collected in
     * positional(); a bad flag syntax terminates via fatal().
     */
    CliArgs(int argc, const char *const *argv);

    /** True if the flag was present on the command line. */
    bool has(const std::string &name) const;

    /** String flag with default. */
    std::string getString(const std::string &name,
                          const std::string &dflt) const;

    /** Integer flag with default; fatal() on non-numeric value. */
    std::int64_t getInt(const std::string &name, std::int64_t dflt) const;

    /** Floating-point flag with default; fatal() on bad value. */
    double getDouble(const std::string &name, double dflt) const;

    /** Boolean flag: present without value, or true/false/1/0. */
    bool getBool(const std::string &name, bool dflt) const;

    /**
     * Fatal (exit 1) naming every flag on the command line that no
     * has() or getter has asked for. Call once, after the program has
     * read all the flags it accepts and before it does any work.
     */
    void rejectUnread() const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    /** The value of --name, or nullptr; records that it was read. */
    const std::string *find(const std::string &name) const;

    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
    /** Flag names asked for so far (present or not). The getters
     * record into it, so they must not run concurrently. */
    mutable std::set<std::string> read_;
};

} // namespace adyna

#endif // ADYNA_COMMON_CLI_HH
