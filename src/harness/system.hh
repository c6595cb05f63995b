/**
 * @file
 * Whole-system assembly: N cores with private L1s, a shared L2 with
 * directory, an interconnect, DRAM, and (optionally) one fence-
 * speculation controller per core.  This is the public entry point the
 * examples, tests and benchmarks build on; the reports rendered from
 * a System (tail report, outliers, stall dossier) are in
 * harness/report.hh.
 *
 * A System owns one SimContext (event queue, stat registry, trace
 * sink, profiler) and drives it on the calling thread.  run() advances
 * the event queue to the next coordinator deadline -- a stat snapshot,
 * a watchdog probe, the cycle budget -- and takes the coordinator step
 * there, until every core halts or the run is abandoned.  Host
 * parallelism lives one level up: a SweepRunner drives many Systems at
 * once, each on its own thread.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/flat_memory.hh"
#include "core/spec_controller.hh"
#include "cpu/core.hh"
#include "isa/program.hh"
#include "mem/directory.hh"
#include "mem/l1_cache.hh"
#include "mem/network.hh"
#include "sim/reqtrace.hh"
#include "sim/sim_object.hh"
#include "sim/watchdog.hh"

namespace fenceless::harness
{

/** Everything configurable about a simulated system. */
struct SystemConfig
{
    std::uint32_t num_cores = 4;
    cpu::ConsistencyModel model = cpu::ConsistencyModel::TSO;
    unsigned sb_size = 16;
    unsigned sb_max_inflight = 4;   //!< relaxed-drain overlap (RMO)
    unsigned sb_prefetch_depth = 4; //!< store ownership prefetching
    spec::SpecController::Params spec; //!< spec.mode == Off -> baseline
    mem::L1Cache::Params l1;
    mem::Directory::Params l2;
    mem::Network::Params net;
    std::uint64_t max_cycles = 500'000'000;

    /**
     * Directory banks (power of two, 1..64).  `l2.size` is the *total*
     * L2 capacity; each bank gets a 1/dir_banks slice and its own DRAM
     * channel.  Blocks interleave across banks by block index
     * (mem::DirectoryMap).  1 keeps the classic monolithic directory.
     */
    std::uint32_t dir_banks = 1;

    /**
     * Structured-trace flag mask (trace::Flag values).  0 (default)
     * disables recording entirely; instrumentation then costs one
     * inline mask test per site.
     */
    std::uint32_t trace_mask = 0;

    /**
     * Periodic stat-snapshot interval in cycles (0 = off).  Each
     * snapshot renders the full registry as JSON; the time series is
     * embedded in writeStatsJson() output.
     */
    Tick stats_interval = 0;

    /**
     * Enable the waste-attribution profiler (per-PC cycle buckets,
     * per-line contention, rollback causes; see sim/profiler.hh).
     * Disabled (default) costs one null test per instrumentation site.
     */
    bool profile = false;

    /**
     * Flight-recorder depth: the last N structured events per component
     * are kept in a fixed ring (rounded up to a power of two) and
     * dumped on panic, watchdog abort, or demand (`--blackbox-out`).
     * On by default -- the ring records only the low-frequency event
     * kinds (see trace::default_blackbox_flags), keeping full-system
     * cost within ~3%.  0 disables the recorder.
     */
    std::size_t blackbox_records = 256;

    /**
     * Per-request span tracing (tail-latency observability, see
     * sim/reqtrace.hh): sample 1 in N misses (0 = off, 1 = every
     * miss).  Sampling is a pure hash of the request id, so the
     * sampled set -- and every derived artifact -- is byte-identical
     * across host-parallel sweeps.  Off costs one sampling-period test
     * per stage site.
     */
    std::uint64_t tail_sample = 0;

    /** Slowest-request dossiers kept by writeOutliers(). */
    std::uint32_t tail_outliers = 10;

    /**
     * Hang-watchdog probe interval in cycles (0 disables).  If a whole
     * interval passes in which no core retires an instruction, the run
     * aborts with a stall dossier instead of spinning to max_cycles.
     */
    Tick watchdog_interval = 100'000;

    /**
     * Rollbacks within one watchdog window that, with zero retirement,
     * classify the hang as a rollback storm (livelock) rather than a
     * deadlock.
     */
    std::uint64_t watchdog_storm = 256;

    /** Convenience: enable on-demand block-granularity speculation. */
    SystemConfig &
    withSpeculation(spec::SpecMode mode = spec::SpecMode::OnDemand)
    {
        spec.mode = mode;
        return *this;
    }

    /** Convenience: enable structured tracing for the given flags. */
    SystemConfig &
    withTracing(std::uint32_t mask =
                    static_cast<std::uint32_t>(trace::Flag::All))
    {
        trace_mask = mask;
        return *this;
    }

    /** Convenience: enable the waste-attribution profiler. */
    SystemConfig &
    withProfiling()
    {
        profile = true;
        return *this;
    }

    /** Convenience: bank the directory @p n ways. */
    SystemConfig &
    withDirBanks(std::uint32_t n)
    {
        dir_banks = n;
        return *this;
    }

    /** Convenience: select the interconnect topology. */
    SystemConfig &
    withTopology(mem::Topology t)
    {
        net.topology = t;
        return *this;
    }

    /** Convenience: enable per-request span tracing. */
    SystemConfig &
    withTailTrace(std::uint64_t period = 1, std::uint32_t outliers = 10)
    {
        tail_sample = period;
        tail_outliers = outliers;
        return *this;
    }

    /**
     * The rules a configuration must meet to run: core count, store
     * buffer, cache geometries, directory banking and topology.
     * @return "" if this configuration can be built, else the first
     *         violated rule.  Options::applyTo refuses a bad command
     *         line with it; the System constructor asserts it.
     */
    std::string check() const;
};

class System
{
  public:
    /** One periodic stat snapshot (pre-rendered groups JSON). */
    struct StatSnapshot
    {
        Tick tick;
        std::string groups_json;
    };

    System(const SystemConfig &config, const isa::Program &prog);

    /**
     * Run until every core halts (or the cycle budget is exhausted).
     * @return true if all cores halted
     */
    bool run();

    /** Cycle the last core halted at (the parallel runtime). */
    Tick runtimeCycles() const;

    /** Current simulated tick. */
    Tick curTick() const { return ctx_.curTick(); }

    /**
     * Functional read of the coherent memory image: the owning L1's
     * copy if one exists, else the L2 copy, else DRAM.
     *
     * Only the L1 the home directory names as owner is read, and only
     * if it holds the block in M or E.  That equals probing every L1
     * on a quiesced system, where auditCoherence() holds: an L1 in
     * M/E/MStale is the directory owner and S copies equal the L2.
     * While requests are in flight (an aborted run) the result is
     * unspecified.  quiesced() is not checked here; it is O(cores).
     */
    std::uint64_t debugRead(Addr addr, unsigned size) const;

    /** A workload::MemReader over debugRead. */
    std::function<std::uint64_t(Addr, unsigned)>
    memReader() const
    {
        return [this](Addr a, unsigned s) { return debugRead(a, s); };
    }

    std::uint32_t numCores() const { return config_.num_cores; }
    cpu::Core &core(std::uint32_t i) { return *cores_.at(i); }
    const cpu::Core &core(std::uint32_t i) const { return *cores_.at(i); }
    const mem::L1Cache &l1(std::uint32_t i) const { return *l1s_.at(i); }

    /** Directory banks actually built (config dir_banks). */
    std::uint32_t dirBanks() const
    {
        return static_cast<std::uint32_t>(dirs_.size());
    }
    mem::Directory &directoryBank(std::uint32_t b) { return *dirs_.at(b); }
    const mem::Directory &directoryBank(std::uint32_t b) const
    {
        return *dirs_.at(b);
    }
    /** Bank 0 -- the whole directory when dir_banks == 1. */
    mem::Directory &directory() { return *dirs_.at(0); }

    /** The bank whose slice @p addr falls in. */
    std::uint32_t bankOf(Addr addr) const;

    /**
     * Stat-group / trace-component name of directory bank @p b.  The
     * single-bank system keeps the historical "l2dir" name so every
     * stats, trace and blackbox document stays byte-identical to
     * pre-banking runs.
     */
    std::string dirBankName(std::uint32_t b) const;

    const mem::Network &network() const { return *network_; }
    const isa::Program &program() const { return prog_; }

    /** The speculation controller for core @p i (null when disabled). */
    const spec::SpecController *specController(std::uint32_t i) const
    {
        return specs_.empty() ? nullptr : specs_.at(i).get();
    }

    statistics::StatRegistry &stats() { return ctx_.stats; }
    const statistics::StatRegistry &stats() const { return ctx_.stats; }
    sim::SimContext &context() { return ctx_; }

    // --- observability ---------------------------------------------------

    /** The one trace sink (structured trace, flight recorder, spans). */
    trace::TraceSink &tracer() { return ctx_.tracer; }
    const trace::TraceSink &tracer() const { return ctx_.tracer; }

    const std::vector<StatSnapshot> &snapshots() const
    {
        return snapshots_;
    }

    /**
     * Write the recorded structured trace as Chrome trace-event JSON
     * (open in ui.perfetto.dev or chrome://tracing), stamped with build
     * provenance.  Records are written in the canonical (tick,
     * component) order.
     */
    void exportTrace(std::ostream &os) const;

    // --- incident forensics ----------------------------------------------

    /** @return true if the hang watchdog aborted the last run(). */
    bool hung() const { return hung_; }

    /** The watchdog's report of the last abort (cause None if none). */
    const sim::Watchdog::Report &
    watchdogReport() const
    {
        return watchdog_report_;
    }

    /**
     * The stall dossier captured when the watchdog fired (empty
     * otherwise); see harness::writeStallDossier.
     */
    const std::string &dossier() const { return dossier_; }

    /**
     * Write the flight-recorder contents as a Chrome trace-event JSON
     * document -- the same format as exportTrace, so the dump replays
     * through the same tooling.
     */
    void writeBlackbox(std::ostream &os) const;

    /**
     * Write the full stat registry -- and the periodic snapshot time
     * series, if `stats_interval` was set -- as one JSON document:
     * `{"groups": {...}, "snapshots": [{"tick": N, "groups": ...}]}`.
     */
    void writeStatsJson(std::ostream &os) const;

    // --- tail-latency observability --------------------------------------

    /**
     * The assembled request spans of the last run (empty unless
     * `config.tail_sample` was set), in canonical order.
     */
    const reqtrace::SpanSet &tailSpans() const { return tail_spans_; }

    /** The critical-path stage attribution of the sampled spans. */
    const reqtrace::TailAttribution &
    tailAttribution() const
    {
        return tail_attr_;
    }

    /**
     * Symbolized waste profile of the run (empty unless
     * `config.profile` was set).  A non-empty @p scope prefixes every
     * key so profiles of different configurations merge cleanly.
     */
    prof::Profile profile(const std::string &scope = "") const;

    std::uint64_t totalInstructions() const;

    /** Aggregate counters handy for benches (summed over cores). */
    std::uint64_t totalCommits() const;
    std::uint64_t totalRollbacks() const;

    /** @return true when no miss/transaction/event remains in flight. */
    bool quiesced() const;

    /**
     * Audit the coherence invariants (single writer, inclusive L2,
     * directory/sharer agreement, S-block data == L2 data).  Must be
     * called on a quiesced system; panics on the first violation.
     */
    void auditCoherence() const;

    const SystemConfig &config() const { return config_; }

    /**
     * The build-provenance JSON embedded in stats/trace/blackbox
     * output, extended with a "sim_mode" stanza recording the machine
     * shape (dir_banks, topology).
     */
    std::string provenanceJson() const;

  private:
    /** Coordinator state of the run in progress. */
    struct DriverState
    {
        Tick boundary = 0;     //!< run-to target of the current step
        Tick next_snapshot = max_tick;
        Tick next_wd = max_tick;
        bool done = false;
    };

    std::vector<prof::CodeSym> codeSyms() const;
    std::vector<prof::DataSym> dataSyms() const;

    void coordinatorStep();
    Tick nextDeadline(bool all_halted) const;

    void takeSnapshot(Tick tick);
    void onWatchdogFire(const sim::Watchdog::Report &report);
    void finalizeTailTrace();

    SystemConfig config_;
    isa::Program prog_;

    // Must precede every component (reverse destruction order:
    // components first, then the context they reference).
    sim::SimContext ctx_;

    FlatMemory backing_;
    std::vector<StatSnapshot> snapshots_;

    std::unique_ptr<mem::Network> network_;
    std::vector<std::unique_ptr<mem::Directory>> dirs_;
    std::vector<std::unique_ptr<mem::L1Cache>> l1s_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<spec::SpecController>> specs_;
    std::unique_ptr<sim::Watchdog> watchdog_;

    std::uint32_t halted_ = 0; //!< cores that have executed halt
    DriverState drv_;

    bool hung_ = false;
    sim::Watchdog::Report watchdog_report_;
    std::string dossier_;

    // Tail-latency observability (populated by finalizeTailTrace()).
    reqtrace::SpanSet tail_spans_;
    reqtrace::TailAttribution tail_attr_;
    bool tail_finalized_ = false;
    /** "tailtrace" stat group members (null when tracing is off). */
    statistics::Scalar *tail_stat_spans_ = nullptr;
    statistics::Scalar *tail_stat_waiters_ = nullptr;
    statistics::Scalar *tail_stat_incomplete_ = nullptr;
    statistics::Scalar *tail_stat_retries_ = nullptr;
    statistics::Distribution *tail_stat_e2e_ = nullptr;
    std::vector<statistics::Distribution *> tail_stat_stage_;
};

} // namespace fenceless::harness
