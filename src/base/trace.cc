#include "base/trace.hh"

#include <sstream>

namespace fenceless::trace
{

namespace
{

// The parseable names.  Flag::Span is deliberately absent: span
// boundaries are recorded when --tail-sample asks, never by --trace.
constexpr Flag all_flags[] = {
    Flag::Core, Flag::SB, Flag::L1, Flag::Dir, Flag::Net, Flag::Spec,
    Flag::Req, Flag::Stall, Flag::All,
};

} // namespace

const char *
flagName(Flag f)
{
    switch (f) {
      case Flag::Core: return "core";
      case Flag::SB: return "sb";
      case Flag::L1: return "l1";
      case Flag::Dir: return "dir";
      case Flag::Net: return "net";
      case Flag::Spec: return "spec";
      case Flag::Req: return "req";
      case Flag::Stall: return "stall";
      case Flag::Span: return "span";
      case Flag::All: return "all";
    }
    return "?";
}

std::string
validFlagNames()
{
    std::string names;
    for (Flag f : all_flags) {
        if (!names.empty())
            names += ",";
        names += flagName(f);
    }
    return names;
}

bool
parseFlags(const std::string &spec, std::uint32_t &mask,
           std::string &error)
{
    std::uint32_t parsed = 0;
    std::string token;
    std::string unknown;
    std::istringstream is(spec);
    while (std::getline(is, token, ',')) {
        if (token.empty())
            continue;
        bool found = false;
        for (Flag f : all_flags) {
            if (token == flagName(f)) {
                parsed |= static_cast<std::uint32_t>(f);
                found = true;
                break;
            }
        }
        if (!found) {
            // Collect every bad token so one retry fixes them all.
            if (!unknown.empty())
                unknown += "', '";
            unknown += token;
        }
    }
    if (!unknown.empty()) {
        error = "unknown trace flag(s) '" + unknown + "' (valid: " +
                validFlagNames() + ")";
        return false;
    }
    mask = parsed;
    return true;
}

} // namespace fenceless::trace
