/**
 * @file
 * Shared helpers for the experiment binaries (T1..T3, F1..F9).
 *
 * Each bench binary regenerates one table or figure of the
 * reconstructed evaluation (see DESIGN.md section 5 and
 * EXPERIMENTS.md): it sweeps configurations, runs the workloads,
 * verifies their postconditions, and prints the rows/series.
 *
 * Sweeps are host-parallel: every (workload x configuration) point is
 * an independent deterministic simulation, so the binaries package
 * each point as a task, hand the batch to harness::SweepRunner
 * (--jobs=N, default hardware concurrency), and render the ordered
 * results on the main thread.  Output is byte-identical to --jobs=1.
 */

#pragma once

#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "harness/exit_codes.hh"
#include "harness/options.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "workload/workload.hh"

namespace fenceless::bench
{

/** The default evaluated machine (Table T1). */
inline harness::SystemConfig
defaultConfig(std::uint32_t cores = 8)
{
    harness::SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.sb_size = 16;
    cfg.l1.size = 32 * 1024;
    cfg.l1.assoc = 8;
    cfg.l1.hit_latency = 2;
    cfg.l2.size = 4 * 1024 * 1024;
    cfg.l2.assoc = 16;
    cfg.l2.latency = 6;
    cfg.l2.dram_latency = 80;
    cfg.net.latency = 8;
    cfg.max_cycles = 2'000'000'000ULL;
    return cfg;
}

/** Counters of one measured run. */
struct RunResult
{
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t commits = 0;
    std::uint64_t rollbacks = 0;
};

/**
 * Outcome of one measured run.  Termination and postconditions are
 * hard requirements -- an experiment on a broken run would be
 * meaningless -- but a failure must not kill the whole sweep from a
 * worker thread, so it is reported as a value and surfaced by the
 * main thread once the sweep has drained.
 */
struct RunOutcome
{
    RunResult result;
    prof::Profile profile; //!< empty unless cfg.profile was set
    std::string error;
    bool hung = false; //!< watchdog abort or cycle-budget exhaustion

    bool ok() const { return error.empty(); }
    explicit operator bool() const { return ok(); }
};

/**
 * Like RunOutcome, but keeps the simulated System alive so the caller
 * can read component statistics after the run.
 */
struct MeasuredSystem
{
    std::unique_ptr<harness::System> sys;
    std::string error;
    bool hung = false; //!< watchdog abort or cycle-budget exhaustion

    bool ok() const { return error.empty(); }
    explicit operator bool() const { return ok(); }
};

/**
 * Build, run and verify one workload under one configuration,
 * returning the System for stat inspection.
 */
inline MeasuredSystem
measureSystem(workload::Workload &wl, const harness::SystemConfig &cfg)
{
    MeasuredSystem m;
    isa::Program prog = wl.build(cfg.num_cores);
    m.sys = std::make_unique<harness::System>(cfg, prog);
    if (!m.sys->run()) {
        m.hung = true;
        m.error = "workload '" + wl.name() +
                  (m.sys->hung()
                       ? "' hung (watchdog abort, stall dossier above)"
                       : "' did not terminate within the cycle budget");
        return m;
    }
    std::string check_error;
    if (!wl.check(m.sys->memReader(), cfg.num_cores, check_error)) {
        m.error = "workload '" + wl.name() +
                  "' failed verification: " + check_error;
    }
    return m;
}

/**
 * Build, run and verify one workload; counters only.  When profiling
 * is enabled in @p cfg the outcome also carries the run's waste
 * profile, with every key prefixed by @p profile_scope so profiles
 * from different sweep points merge without colliding.
 */
inline RunOutcome
measure(workload::Workload &wl, const harness::SystemConfig &cfg,
        const std::string &profile_scope = "")
{
    RunOutcome out;
    MeasuredSystem m = measureSystem(wl, cfg);
    if (!m.ok()) {
        out.error = std::move(m.error);
        out.hung = m.hung;
        return out;
    }
    out.result.cycles = m.sys->runtimeCycles();
    out.result.instructions = m.sys->totalInstructions();
    out.result.commits = m.sys->totalCommits();
    out.result.rollbacks = m.sys->totalRollbacks();
    if (cfg.profile)
        out.profile = m.sys->profile(profile_scope);
    return out;
}

/**
 * One rendered table row produced by a sweep task -- the common case.
 * A non-empty error marks the task (and the experiment) as failed.
 */
struct Row
{
    std::vector<std::string> cells;
    std::string error;
    bool hung = false; //!< the task's run hung (watchdog / budget)
};

/**
 * Run every task on a SweepRunner sized by --jobs and return the
 * results in submission order.  Tasks execute in any order across the
 * workers, but all rendering happens on the calling thread from the
 * ordered results, which keeps parallel output byte-identical to the
 * sequential run.
 */
template <typename R>
std::vector<R>
runSweep(const harness::Options &opts,
         std::vector<std::function<R()>> tasks)
{
    harness::SweepRunner runner(opts.jobs());
    return runner.map(std::move(tasks));
}

/**
 * Surface task failures once the sweep has drained: print every error
 * (projected out of a result by @p error_of) to stderr.
 * @return true if no task failed
 */
template <typename R, typename ErrorOf>
bool
sweepOk(const std::vector<R> &results, ErrorOf &&error_of)
{
    bool ok = true;
    for (const auto &r : results) {
        const std::string err = error_of(r);
        if (!err.empty()) {
            std::cerr << "error: " << err << "\n";
            ok = false;
        }
    }
    return ok;
}

/** sweepOk for the Row-producing sweeps. */
inline bool
sweepOk(const std::vector<Row> &rows)
{
    return sweepOk(rows, [](const Row &r) { return r.error; });
}

/**
 * Process exit code for a drained sweep (see harness/exit_codes.hh):
 * exit_hang if any task hung, exit_postcondition if any task failed
 * for another reason (a workload postcondition), exit_ok otherwise.
 * @p error_of / @p hung_of project the fields out of a result.
 */
template <typename R, typename ErrorOf, typename HungOf>
int
sweepExitCode(const std::vector<R> &results, ErrorOf &&error_of,
              HungOf &&hung_of)
{
    int code = harness::exit_ok;
    for (const auto &r : results) {
        if (hung_of(r))
            return harness::exit_hang;
        if (!error_of(r).empty())
            code = harness::exit_postcondition;
    }
    return code;
}

/** sweepExitCode for the Row-producing sweeps. */
inline int
sweepExitCode(const std::vector<Row> &rows)
{
    return sweepExitCode(
        rows, [](const Row &r) { return r.error; },
        [](const Row &r) { return r.hung; });
}

/**
 * The standard suite as shared_ptrs, so each sweep task can co-own
 * exactly one workload (std::function closures must be copyable).
 * Tasks never share a workload instance: one task per workload.
 */
inline std::vector<std::shared_ptr<workload::Workload>>
sharedSuite(unsigned scale)
{
    std::vector<std::shared_ptr<workload::Workload>> suite;
    for (auto &wl : workload::standardSuite(scale))
        suite.push_back(std::move(wl));
    return suite;
}

/** Standard experiment header. */
inline void
banner(const std::string &id, const std::string &title)
{
    std::cout << "\n=== " << id << ": " << title << " ===\n\n";
}

/**
 * Write one artefact: open @p path, or report it against --@p option
 * and fail; otherwise run @p write on the stream and print @p done,
 * when non-empty, to stderr.
 * @return false if the file could not be opened
 */
template <typename Write>
bool
writeArtifact(const char *option, const std::string &path, Write write,
              const std::string &done)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "error: cannot open --" << option << " file '"
                  << path << "'\n";
        return false;
    }
    write(os);
    if (!done.empty())
        std::cerr << done << "\n";
    return true;
}

/**
 * Write the waste-profile artefacts requested on the command line:
 * `--profile-out=FILE` (JSON, plus FILE.folded with flamegraph folded
 * stacks) and `--waste-report` (top-N table on stdout).  No-op when
 * neither option was passed.  Callers that sweep many configurations
 * merge the per-run profiles (in submission order, for byte-identical
 * output at any --jobs) and pass the merged profile here once.
 * @return false if a requested file could not be opened
 */
inline bool
writeProfileArtifacts(const prof::Profile &profile,
                      const harness::Options &opts)
{
    if (const std::string path = opts.profileOut(); !path.empty()) {
        const std::string folded = path + ".folded";
        if (!writeArtifact(
                "profile-out", path,
                [&](std::ostream &os) { profile.writeJson(os); }, "") ||
            !writeArtifact(
                "profile-out", folded,
                [&](std::ostream &os) { profile.writeFolded(os); },
                "profile written to " + path + " and " + folded))
            return false;
    }
    if (opts.wasteReport())
        profile.writeReport(std::cout);
    return true;
}

/**
 * Write the observability artefacts requested on the command line:
 * `--trace-out=FILE` (Chrome trace-event JSON, load in
 * ui.perfetto.dev), `--stats-json=FILE` (full stat registry plus the
 * snapshot time series), `--blackbox-out=FILE` (flight-recorder dump,
 * same format as --trace-out), `--profile-out=FILE` and
 * `--waste-report` (waste-attribution profile).  No-op when no option
 * was passed.
 * @return false if a requested file could not be opened
 */
inline bool
writeObservability(const harness::System &sys,
                   const harness::Options &opts)
{
    if (const std::string path = opts.traceOut();
        !path.empty() &&
        !writeArtifact(
            "trace-out", path,
            [&](std::ostream &os) { sys.exportTrace(os); },
            "trace written to " + path + " (open in ui.perfetto.dev)"))
        return false;
    if (const std::string path = opts.statsJson();
        !path.empty() &&
        !writeArtifact(
            "stats-json", path,
            [&](std::ostream &os) { sys.writeStatsJson(os); },
            "stats written to " + path))
        return false;
    if (const std::string path = opts.blackboxOut();
        !path.empty() &&
        !writeArtifact("blackbox-out", path,
                       [&](std::ostream &os) { sys.writeBlackbox(os); },
                       "flight recorder written to " + path +
                           " (open in ui.perfetto.dev)"))
        return false;
    if (const std::string path = opts.outliersOut();
        !path.empty() &&
        !writeArtifact("outliers-out", path,
                       [&](std::ostream &os) { writeOutliers(os, sys); },
                       "outlier dossiers written to " + path))
        return false;
    if (opts.profiling() && !writeProfileArtifacts(sys.profile(), opts))
        return false;
    if (opts.tailReport())
        writeTailReport(std::cout, sys);
    return true;
}

/**
 * Mean of the named latency distribution averaged over every component
 * group whose name starts with @p group_prefix (e.g. all "l1_*"
 * caches), weighted by sample count.  Returns 0 with no samples.
 * This is the request-lifetime attribution view: each phase of a miss
 * (L1 miss to fill, directory queueing, directory service, network
 * transit) owns one distribution, and the phase means decompose the
 * end-to-end miss latency.
 */
inline double
meanPhaseLatency(const harness::System &sys,
                 const std::string &group_prefix,
                 const std::string &dist_name)
{
    double weighted = 0;
    std::uint64_t samples = 0;
    for (const auto &group : sys.stats().groups()) {
        if (group->name().rfind(group_prefix, 0) != 0)
            continue;
        const statistics::Distribution *d =
            group->findDistribution(dist_name);
        if (!d || d->samples() == 0)
            continue;
        weighted += d->mean() * static_cast<double>(d->samples());
        samples += d->samples();
    }
    return samples ? weighted / static_cast<double>(samples) : 0.0;
}

} // namespace fenceless::bench
