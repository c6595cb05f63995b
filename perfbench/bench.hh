/**
 * @file
 * The fenceless performance benchmark: named workloads built from the
 * public harness::System / workload::Workload / harness::SweepRunner
 * API, one timed pass over a workload's simulations, and the per-layer
 * work counts read back from each simulated system.
 *
 * A pass builds, constructs, runs, checks and audits every simulation
 * of a workload.  Host time is taken as spans around each of those
 * public calls; nothing inside the simulator is instrumented.  A
 * traced pass additionally reads the stat registry and event queue of
 * every system and digests the simulated stat groups.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "workload/workload.hh"

namespace perfbench
{

/** Why a simulation did not reach a verified result. */
enum class Outcome
{
    Ok,
    NotHalted,   //!< run() returned false without a watchdog abort
    Hung,        //!< the hang watchdog fired
    CheckFailed, //!< the workload's postcondition failed
};

const char *outcomeName(Outcome o);

/** One simulation of a pass: a machine and a program to run on it. */
struct SimSpec
{
    std::string label;
    fenceless::harness::SystemConfig cfg;
    /** A fresh workload instance (build() records addresses in it). */
    std::function<fenceless::workload::WorkloadPtr()> make;
    /** Optional fault injection, applied after build (hang probes). */
    std::function<void(fenceless::harness::SystemConfig &,
                       const fenceless::workload::Workload &)>
        inject;
};

/** Per-layer work counts; summed (or combined) over a pass. */
using Counts = std::map<std::string, double>;

/** Host spans and results of one simulation. */
struct SimResult
{
    Outcome outcome = Outcome::Ok;
    std::string error;

    // Host seconds spent in each public call.
    double build_s = 0;     //!< Workload::build
    double construct_s = 0; //!< System::System
    double run_s = 0;       //!< System::run
    double check_s = 0;     //!< Workload::check
    double audit_s = 0;     //!< System::auditCoherence
    double export_s = 0;    //!< System::writeStatsJson (traced only)
    /** Traced only: reading counts and digesting stats (tracer cost). */
    double trace_s = 0;

    /** The whole task, relative to the start of its pass. */
    double start_s = 0;
    double end_s = 0;
    std::size_t worker = 0; //!< hash of the host thread that ran it

    std::uint64_t instructions = 0;
    Counts counts;            //!< traced only
    std::uint64_t digest = 0; //!< traced only: simulated stat groups
};

/** One pass over every simulation of a workload. */
struct Pass
{
    unsigned jobs = 1;
    double wall_s = 0; //!< makespan: first task start to last task end
    std::vector<SimResult> sims;

    std::size_t failed() const;
    /** Sum of a per-simulation span over the pass. */
    double sum(double SimResult::*span) const;
    std::uint64_t instructions() const;
    /** Per-layer counts of the whole pass (traced passes only). */
    Counts counts() const;
    /** Order-sensitive digest of every simulation's stat digest. */
    std::uint64_t digest() const;
};

/** Build, construct, run, check and audit one simulation. */
SimResult runSim(const SimSpec &spec, bool traced);

/** Run every simulation of @p specs on @p jobs host threads. */
Pass runPass(const std::vector<SimSpec> &specs, unsigned jobs,
             bool traced);

/** The benchmark's workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The simulations of workload @p name; the seeded programs take their
 * seeds from @p seed.  Empty for an unknown name.
 */
std::vector<SimSpec> makeWorkload(const std::string &name,
                                  std::uint64_t seed);

/** Host threads the workload's passes use (suite: every CPU). */
unsigned workloadJobs(const std::string &name);

} // namespace perfbench
