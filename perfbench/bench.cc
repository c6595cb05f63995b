#include "perfbench/bench.hh"

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "base/stats_json.hh"
#include "harness/sweep.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr std::uint64_t fnv_basis = 0xcbf29ce484222325ULL;

/** An independent per-program seed derived from the benchmark seed. */
std::uint64_t
seedFor(std::uint64_t seed, std::uint64_t program)
{
    std::uint64_t z = seed + program * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// Per-program seed streams.
enum SeedStream : std::uint64_t
{
    seed_irregular = 1,
    seed_stencil,
    seed_matmul,
    seed_histogram,
};

template <typename W>
std::function<workload::WorkloadPtr()>
factory(const typename W::Params &p)
{
    return [p] { return std::make_unique<W>(p); };
}

/** The part of a stat's name after its group's "<group>." prefix. */
std::string
shortName(const statistics::StatGroup &g, const statistics::Stat &s)
{
    return s.name().substr(g.name().size() + 1);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

void
maxInto(Counts &c, const std::string &key, double v)
{
    auto [it, fresh] = c.emplace(key, v);
    if (!fresh && v > it->second)
        it->second = v;
}

/**
 * Raw per-layer counts of one finished system.  Sums stay sums over a
 * pass; "*_max" entries combine by maximum; ratios are derived from
 * the pass totals in Pass::counts().
 */
Counts
readCounts(harness::System &sys)
{
    // Every key is present, even where a layer is absent (no spec
    // controllers in a baseline run).
    Counts c;
    for (const char *key :
         {"core.instructions", "core.fences_full", "core.stall_cycles",
          "sb.pushed", "sb.drained", "sb.fwd_hits", "spec.epochs",
          "spec.commits", "spec.rollbacks", "spec.discarded_insts",
          "l1.hits", "l1.misses", "l1.invs_received", "l1.evictions",
          "l1.fill_retries", "l1.miss_latency_p99_max", "network.msgs",
          "network.hops", "l2dir.recalls", "l2dir.dram_reads",
          "l2dir.dram_writes", "l2dir.txns", "l2dir.txn_queue_wait_p99_max"})
        c[key] = 0;
    const sim::EventQueue &eq = sys.context().eventq;
    c["eventq.events"] = static_cast<double>(eq.nearPops() + eq.farPops());
    c["eventq.stale_pops"] = static_cast<double>(eq.stalePops());
    c["eventq.oneshot_nodes_max"] =
        static_cast<double>(eq.oneShotNodesAllocated());
    c["sim.cycles"] = static_cast<double>(sys.runtimeCycles());

    for (const auto &gp : sys.stats().groups()) {
        const statistics::StatGroup &g = *gp;
        const std::string &gn = g.name();
        auto add = [&c, &g](const std::string &key, const char *stat) {
            c[key] += static_cast<double>(g.scalarCount(stat));
        };
        if (startsWith(gn, "core_")) {
            add("core.instructions", "instructions");
            add("core.fences_full", "fences_full");
            add("sb.pushed", "sb_pushed");
            add("sb.drained", "sb_drained");
            add("sb.fwd_hits", "sb_fwd_hits");
            for (const auto &s : g.stats()) {
                if (startsWith(shortName(g, *s), "stall_"))
                    c["core.stall_cycles"] += s->value();
            }
        } else if (startsWith(gn, "spec_")) {
            add("spec.epochs", "epochs");
            add("spec.commits", "commits");
            add("spec.rollbacks", "rollbacks");
            add("spec.discarded_insts", "discarded_insts");
        } else if (startsWith(gn, "l1_")) {
            add("l1.hits", "hits");
            add("l1.misses", "misses");
            add("l1.invs_received", "invs_received");
            add("l1.evictions", "evictions");
            add("l1.fill_retries", "fill_retries");
            if (const auto *d = g.findDistribution("miss_latency"))
                maxInto(c, "l1.miss_latency_p99_max", d->percentile(0.99));
        } else if (gn == "network") {
            add("network.msgs", "msgs");
            add("network.hops", "hops");
        } else if (gn == "l2dir" || startsWith(gn, "l2dir.bank")) {
            add("l2dir.recalls", "recalls");
            add("l2dir.dram_reads", "dram_reads");
            add("l2dir.dram_writes", "dram_writes");
            if (const auto *d = g.findDistribution("txn_service"))
                c["l2dir.txns"] += static_cast<double>(d->samples());
            if (const auto *d = g.findDistribution("txn_queue_wait")) {
                maxInto(c, "l2dir.txn_queue_wait_p99_max",
                        d->percentile(0.99));
            }
        }
    }
    return c;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Ok: return "ok";
      case Outcome::NotHalted: return "not-halted";
      case Outcome::Hung: return "hung";
      case Outcome::CheckFailed: return "check-failed";
    }
    return "?";
}

SimResult
runSim(const SimSpec &spec, bool traced)
{
    SimResult r;
    harness::SystemConfig cfg = spec.cfg;

    auto t = Clock::now();
    workload::WorkloadPtr wl = spec.make();
    isa::Program prog = wl->build(cfg.num_cores);
    r.build_s = secondsSince(t);
    if (spec.inject)
        spec.inject(cfg, *wl);

    t = Clock::now();
    harness::System sys(cfg, prog);
    r.construct_s = secondsSince(t);

    t = Clock::now();
    const bool halted = sys.run();
    r.run_s = secondsSince(t);
    r.instructions = sys.totalInstructions();

    if (!halted) {
        r.outcome = sys.hung() ? Outcome::Hung : Outcome::NotHalted;
        r.error = spec.label + ": " + outcomeName(r.outcome);
        return r;
    }

    std::uint64_t reads = 0;
    t = Clock::now();
    bool checked = false;
    if (traced) {
        const workload::MemReader counting =
            [&sys, &reads](Addr a, unsigned size) {
                ++reads;
                return sys.debugRead(a, size);
            };
        checked = wl->check(counting, cfg.num_cores, r.error);
    } else {
        checked = wl->check(sys.memReader(), cfg.num_cores, r.error);
    }
    r.check_s = secondsSince(t);
    if (!checked) {
        r.outcome = Outcome::CheckFailed;
        r.error = spec.label + ": " + r.error;
    }

    // Panics (aborting the process) on a coherence violation.
    t = Clock::now();
    sys.auditCoherence();
    r.audit_s = secondsSince(t);

    if (traced) {
        t = Clock::now();
        std::ostringstream json;
        sys.writeStatsJson(json);
        r.export_s = secondsSince(t);

        t = Clock::now();
        r.counts = readCounts(sys);
        r.counts["workload.check_reads"] = static_cast<double>(reads);
        std::ostringstream groups;
        statistics::printGroupsJson(groups, sys.stats());
        r.digest = fnv1a(fnv_basis, groups.str());
        r.trace_s = secondsSince(t);
    }
    return r;
}

std::size_t
Pass::failed() const
{
    std::size_t n = 0;
    for (const SimResult &s : sims)
        n += s.outcome != Outcome::Ok;
    return n;
}

double
Pass::sum(double SimResult::*span) const
{
    double total = 0;
    for (const SimResult &s : sims)
        total += s.*span;
    return total;
}

std::uint64_t
Pass::instructions() const
{
    std::uint64_t total = 0;
    for (const SimResult &s : sims)
        total += s.instructions;
    return total;
}

Counts
Pass::counts() const
{
    Counts c;
    for (const SimResult &s : sims) {
        for (const auto &[k, v] : s.counts) {
            if (k.size() > 4 && k.compare(k.size() - 4, 4, "_max") == 0)
                maxInto(c, k.substr(0, k.size() - 4), v);
            else
                c[k] += v;
        }
    }
    c["l1.accesses"] = c["l1.hits"] + c["l1.misses"];
    c["l1.hit_ratio"] = ratio(c["l1.hits"], c["l1.accesses"]);
    c["network.hops_per_msg"] =
        ratio(c["network.hops"], c["network.msgs"]);
    c["spec.commit_ratio"] = ratio(c["spec.commits"],
                                   c["spec.commits"] + c["spec.rollbacks"]);
    c["sim.ipc"] = ratio(c["core.instructions"], c["sim.cycles"]);
    c.erase("l1.hits");
    return c;
}

std::uint64_t
Pass::digest() const
{
    std::uint64_t h = fnv_basis;
    for (const SimResult &s : sims)
        h = fnv1a(h, std::to_string(s.digest) + ";");
    return h;
}

Pass
runPass(const std::vector<SimSpec> &specs, unsigned jobs, bool traced)
{
    Pass pass;
    harness::SweepRunner runner(jobs);
    pass.jobs = runner.jobs();
    std::vector<std::function<SimResult()>> tasks;
    tasks.reserve(specs.size());
    const Clock::time_point t0 = Clock::now();
    for (const SimSpec &spec : specs) {
        tasks.push_back([&spec, traced, t0] {
            const double start = secondsSince(t0);
            SimResult r = runSim(spec, traced);
            r.start_s = start;
            r.end_s = secondsSince(t0);
            r.worker = std::hash<std::thread::id>{}(
                std::this_thread::get_id());
            return r;
        });
    }
    pass.sims = runner.map(std::move(tasks));
    pass.wall_s = secondsSince(t0);
    return pass;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

namespace
{

/** lock4: long 4-core crossbar runs; the core/L1-hit hot path. */
std::vector<SimSpec>
lock4(std::uint64_t seed)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation();

    workload::SpinlockCrit::Params spin;
    spin.iters = 4000;
    workload::IrregularUpdate::Params irregular;
    irregular.updates = 4000;
    irregular.seed = seedFor(seed, seed_irregular);
    workload::Dekker::Params dekker;
    dekker.iters = 4000;

    return {
        {"lock4/spinlock-crit", cfg,
         factory<workload::SpinlockCrit>(spin), {}},
        {"lock4/irregular-update", cfg,
         factory<workload::IrregularUpdate>(irregular), {}},
        {"lock4/dekker", cfg, factory<workload::Dekker>(dekker), {}},
    };
}

/** mesh64: 64 cores, 2D mesh, 8 directory banks; the miss path. */
std::vector<SimSpec>
mesh64(std::uint64_t seed)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 64;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation();
    cfg.withTopology(mem::Topology::Mesh);
    cfg.withDirBanks(8);

    workload::LocalLockStream::Params local;
    local.iters = 128; // the quickstart default
    workload::IrregularUpdate::Params irregular;
    irregular.updates = 256;
    irregular.seed = seedFor(seed, seed_irregular);

    return {
        {"mesh64/local-locks", cfg,
         factory<workload::LocalLockStream>(local), {}},
        {"mesh64/irregular-update", cfg,
         factory<workload::IrregularUpdate>(irregular), {}},
    };
}

/**
 * The standard suite's fourteen programs at unit-test size (the sizes
 * of workload::standardSuite(1)), with the seeded ones seeded here.
 */
std::vector<std::pair<std::string, std::function<workload::WorkloadPtr()>>>
seededSuite(std::uint64_t seed)
{
    using namespace workload;
    std::vector<std::pair<std::string, std::function<WorkloadPtr()>>> s;
    auto add = [&s](std::function<WorkloadPtr()> make) {
        s.emplace_back(make()->name(), std::move(make));
    };
    add(factory<SpinlockCrit>({}));
    add(factory<TicketLockCrit>({}));
    add(factory<BarrierPhase>({}));
    add(factory<Dekker>({}));
    add(factory<ProdCons>({}));
    add(factory<MpmcQueue>({}));
    add(factory<SeqlockReaders>({}));
    add(factory<LocalLockStream>({}));
    AtomicHistogram::Params hist;
    hist.seed = seedFor(seed, seed_histogram);
    add(factory<AtomicHistogram>(hist));

    Stencil2D::Params stencil;
    stencil.seed = seedFor(seed, seed_stencil);
    add(factory<Stencil2D>(stencil));
    IrregularUpdate::Params irregular;
    irregular.seed = seedFor(seed, seed_irregular);
    add(factory<IrregularUpdate>(irregular));
    // radix-partition keeps its fixed default seed: seeded, it fails
    // its postcondition under TSO + speculation at 4 cores for about
    // one seed in six (a simulator defect; see perfbench/README.md).
    add(factory<RadixPartition>({}));
    MatmulBlocked::Params matmul;
    matmul.seed = seedFor(seed, seed_matmul);
    add(factory<MatmulBlocked>(matmul));
    add(factory<Pipeline>({}));
    return s;
}

/** suite: standard suite x {SC,TSO,RMO} x {base,spec} x {4,16}. */
std::vector<SimSpec>
suite(std::uint64_t seed)
{
    std::vector<SimSpec> specs;
    for (auto &[name, make] : seededSuite(seed)) {
        for (auto model : {cpu::ConsistencyModel::SC,
                           cpu::ConsistencyModel::TSO,
                           cpu::ConsistencyModel::RMO}) {
            for (bool spec : {false, true}) {
                for (std::uint32_t cores : {4u, 16u}) {
                    harness::SystemConfig cfg;
                    cfg.num_cores = cores;
                    cfg.model = model;
                    if (spec)
                        cfg.withSpeculation();
                    specs.push_back(
                        {"suite/" + name + "/"
                             + cpu::consistencyModelName(model)
                             + (spec ? "+spec/" : "/")
                             + std::to_string(cores),
                         cfg, make, {}});
                }
            }
        }
    }
    return specs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"lock4", "mesh64",
                                                   "suite"};
    return names;
}

std::vector<SimSpec>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "lock4")
        return lock4(seed);
    if (name == "mesh64")
        return mesh64(seed);
    if (name == "suite")
        return suite(seed);
    return {};
}

unsigned
workloadJobs(const std::string &name)
{
    return name == "suite" ? harness::SweepRunner::resolveJobs(0) : 1;
}

} // namespace perfbench
