/**
 * @file
 * Command-line option parsing for the examples and benchmark binaries.
 *
 * Keeps the binaries scriptable without pulling in a flags library:
 *
 *     harness::Options opts(argc, argv);
 *     harness::SystemConfig cfg = opts.applyTo(defaults);
 *     if (opts.csv()) ...
 *
 * Every binary prints the options it accepts with --help; one table
 * in options.cc drives both that text and the parser.
 *
 * Output paths (--trace-out, --stats-json, --profile-out) are opened
 * for writing at parse time and rejected immediately when unwritable,
 * so a bad path fails before the simulation instead of after it.
 * Likewise a machine the simulator cannot build (SystemConfig::check)
 * is refused by applyTo with a `fatal:` line and exit status 1.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/system.hh"

namespace fenceless::harness
{

class Options
{
  public:
    /**
     * Parse argv.  Unknown --options are fatal (typos should not
     * silently run the default experiment); positional arguments are
     * not supported.  `--help` prints usage and exits.
     */
    Options(int argc, char **argv);

    /**
     * Overlay the parsed options onto @p base and return the result;
     * fatal if the result fails SystemConfig::check().
     */
    SystemConfig applyTo(SystemConfig base) const;

    bool csv() const { return csv_; }
    unsigned scale() const { return scale_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Worker threads for host-parallel sweeps (SweepRunner); 0 means
     * "pick the hardware concurrency".  Output is byte-identical for
     * every value -- see harness/sweep.hh.
     */
    unsigned jobs() const { return jobs_; }

    /** Path for --trace-out ("" = no trace export requested). */
    std::string traceOut() const { return get("trace-out"); }

    /** Path for --stats-json ("" = no JSON stats requested). */
    std::string statsJson() const { return get("stats-json"); }

    /**
     * Path for --sweep-json ("" = not requested): benchmarks that
     * sweep an axis append one JSON object per sweep point, one per
     * line, for fl_report's scaling analysis.
     */
    std::string sweepJson() const { return get("sweep-json"); }

    /** Path for --profile-out ("" = no profile export requested). */
    std::string profileOut() const { return get("profile-out"); }

    /** Path for --blackbox-out ("" = no on-demand dump requested). */
    std::string blackboxOut() const { return get("blackbox-out"); }

    /** @return true if --waste-report was passed. */
    bool wasteReport() const { return has("waste-report"); }

    /** @return true if --tail-report was passed. */
    bool tailReport() const { return has("tail-report"); }

    /** Path for --outliers-out ("" = no dossiers requested). */
    std::string outliersOut() const { return get("outliers-out"); }

    /** @return true if any profiler output was requested. */
    bool
    profiling() const
    {
        return has("profile-out") || has("waste-report");
    }

    /** @return true if the user passed the given option. */
    bool has(const std::string &name) const
    {
        return values_.count(name) > 0;
    }

    /** Raw string value of an option ("" if absent). */
    std::string get(const std::string &name) const;

    /**
     * Integer value of an option (or @p fallback).  The value must be
     * decimal digits only and at most @p max; anything else -- a sign,
     * trailing junk, a value the caller's type cannot hold -- is fatal.
     */
    std::uint64_t getInt(const std::string &name, std::uint64_t fallback,
                         std::uint64_t max = UINT64_MAX) const;

    static void printUsage(const std::string &prog);

  private:
    std::map<std::string, std::string> values_;
    bool csv_ = false;
    unsigned scale_ = 1;
    std::uint64_t seed_ = 42;
    unsigned jobs_ = 0;
};

} // namespace fenceless::harness
