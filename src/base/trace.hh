/**
 * @file
 * Trace flags: the event families the structured tracer records.
 *
 * A Flag names one family of TraceSink records (sim/trace_sink.hh);
 * `--trace=core,l1,spec` parses into the sink's mask through
 * parseFlags().  Recording itself lives in the sink.
 */

#pragma once

#include <cstdint>
#include <string>

namespace fenceless::trace
{

enum class Flag : std::uint32_t
{
    Core  = 1u << 0,
    SB    = 1u << 1,
    L1    = 1u << 2,
    Dir   = 1u << 3,
    Net   = 1u << 4,
    Spec  = 1u << 5,
    Req   = 1u << 6, //!< request-lifetime flow events (miss attribution)
    Stall = 1u << 7, //!< core stall-interval duration events
    Span  = 1u << 8, //!< sampled request-span boundaries; owned by the
                     //!< sink's span sampling, not a --trace name
    All   = ~0u,
};

/** @return the canonical lower-case name of a single flag. */
const char *flagName(Flag f);

/** Comma-separated list of every valid flag name (for error messages). */
std::string validFlagNames();

/**
 * Parse "core,l1,spec" / "all" into @p mask.
 * @return true on success; on failure @p error describes the unknown
 *         name and lists the valid flags, and @p mask is untouched.
 */
bool parseFlags(const std::string &spec, std::uint32_t &mask,
                std::string &error);

} // namespace fenceless::trace
