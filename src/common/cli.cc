#include "common/cli.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace adyna {

CliArgs::CliArgs(int argc, const char *const *argv)
{
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.size() < 3 || arg.substr(0, 2) != "--") {
            positional_.push_back(std::move(arg));
            continue;
        }
        std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            flags_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // "--name value" unless the next token is another flag or
        // there is no next token; then it is a boolean flag.
        if (i + 1 < argc && std::string(argv[i + 1]).substr(0, 2) != "--") {
            flags_[body] = argv[++i];
        } else {
            flags_[body] = "";
        }
    }
}

const std::string *
CliArgs::find(const std::string &name) const
{
    read_.insert(name);
    const auto it = flags_.find(name);
    return it == flags_.end() ? nullptr : &it->second;
}

bool
CliArgs::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
CliArgs::getString(const std::string &name, const std::string &dflt) const
{
    const std::string *v = find(name);
    return v ? *v : dflt;
}

std::int64_t
CliArgs::getInt(const std::string &name, std::int64_t dflt) const
{
    const std::string *v = find(name);
    if (!v)
        return dflt;
    char *end = nullptr;
    const std::int64_t value = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0')
        ADYNA_FATAL("flag --", name, " expects an integer, got '", *v,
                    "'");
    return value;
}

double
CliArgs::getDouble(const std::string &name, double dflt) const
{
    const std::string *v = find(name);
    if (!v)
        return dflt;
    char *end = nullptr;
    const double value = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        ADYNA_FATAL("flag --", name, " expects a number, got '", *v,
                    "'");
    return value;
}

bool
CliArgs::getBool(const std::string &name, bool dflt) const
{
    const std::string *v = find(name);
    if (!v)
        return dflt;
    if (v->empty() || *v == "true" || *v == "1" || *v == "yes")
        return true;
    if (*v == "false" || *v == "0" || *v == "no")
        return false;
    ADYNA_FATAL("flag --", name, " expects a boolean, got '", *v, "'");
}

void
CliArgs::rejectUnread() const
{
    std::string unread;
    for (const auto &[name, value] : flags_)
        if (!read_.count(name))
            unread += (unread.empty() ? "--" : ", --") + name;
    if (!unread.empty())
        ADYNA_FATAL(program_, ": unknown flag(s) ", unread);
}

} // namespace adyna
