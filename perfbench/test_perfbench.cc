/**
 * @file
 * Tests of the benchmark itself: failure accounting, seed plumbing and
 * the determinism of the traced counts.
 */

#include <gtest/gtest.h>

#include "perfbench/bench.hh"
#include "workload/kernels.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace perfbench;

namespace
{

/** The simulations of @p wl whose label contains any of @p parts. */
std::vector<SimSpec>
select(const std::string &wl, std::uint64_t seed,
       const std::vector<std::string> &parts)
{
    std::vector<SimSpec> out;
    for (SimSpec &s : makeWorkload(wl, seed)) {
        for (const std::string &p : parts) {
            if (s.label.find(p) != std::string::npos) {
                out.push_back(std::move(s));
                break;
            }
        }
    }
    return out;
}

/** The seeded suite programs, on one small configuration each. */
std::vector<SimSpec>
seededPrograms(std::uint64_t seed)
{
    return select("suite", seed,
                  {"/irregular-update/TSO/4", "/stencil2d/TSO/4",
                   "/matmul/TSO/4", "/atomic-histogram/TSO/4"});
}

SimSpec
smallSpinlock()
{
    harness::SystemConfig cfg;
    cfg.num_cores = 2;
    return {"probe/spinlock-crit", cfg,
            [] { return std::make_unique<workload::SpinlockCrit>(); },
            {}};
}

/**
 * The hang probe: a 2-core SeededDeadlock whose forwarded-data acks
 * are dropped for both of its blocks, so the watchdog fires.
 */
SimSpec
hangProbe()
{
    harness::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.watchdog_interval = 5'000;
    return {"probe/seeded-deadlock", cfg,
            [] { return std::make_unique<workload::SeededDeadlock>(); },
            [](harness::SystemConfig &c, const workload::Workload &wl) {
                const auto &dl =
                    static_cast<const workload::SeededDeadlock &>(wl);
                c.net.drop_fwd_acks_for = {dl.blockX(), dl.blockY()};
            }};
}

/** A workload whose postcondition always fails. */
class FailingCheck : public workload::SpinlockCrit
{
  public:
    bool
    check(const workload::MemReader &, std::uint32_t,
          std::string &error) const override
    {
        error = "forced failure";
        return false;
    }
};

} // namespace

TEST(Perfbench, WorkloadsAreNamedAndNonEmpty)
{
    for (const std::string &name : workloadNames())
        EXPECT_FALSE(makeWorkload(name, 1).empty()) << name;
    EXPECT_TRUE(makeWorkload("nope", 1).empty());
    EXPECT_EQ(makeWorkload("suite", 1).size(), 168u);
    EXPECT_EQ(workloadJobs("lock4"), 1u);
    EXPECT_EQ(workloadJobs("mesh64"), 1u);
}

TEST(Perfbench, HangProbeIsExactlyOneFailureAndThePassContinues)
{
    for (unsigned jobs : {1u, 2u}) {
        const Pass p =
            runPass({smallSpinlock(), hangProbe(), smallSpinlock()}, jobs,
                    false);
        ASSERT_EQ(p.sims.size(), 3u);
        EXPECT_EQ(p.failed(), 1u);
        EXPECT_EQ(p.sims[0].outcome, Outcome::Ok);
        EXPECT_EQ(p.sims[1].outcome, Outcome::Hung);
        EXPECT_EQ(p.sims[2].outcome, Outcome::Ok);
        EXPECT_GT(p.sims[2].instructions, 0u);
    }
}

TEST(Perfbench, FailedPostconditionCountsAsAFailure)
{
    SimSpec bad = smallSpinlock();
    bad.make = [] { return std::make_unique<FailingCheck>(); };
    const Pass p = runPass({bad, smallSpinlock()}, 1, false);
    EXPECT_EQ(p.failed(), 1u);
    EXPECT_EQ(p.sims[0].outcome, Outcome::CheckFailed);
    EXPECT_NE(p.sims[0].error.find("forced failure"), std::string::npos);
    EXPECT_EQ(p.sims[1].outcome, Outcome::Ok);
}

TEST(Perfbench, OneSeedRepeatsExactly)
{
    const Pass a = runPass(seededPrograms(5), 1, true);
    const Pass b = runPass(seededPrograms(5), 1, true);
    EXPECT_EQ(a.failed(), 0u);
    EXPECT_EQ(a.counts(), b.counts());
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(Perfbench, SeedChangesEverySeededProgram)
{
    const std::vector<SimSpec> one = seededPrograms(1);
    const std::vector<SimSpec> two = seededPrograms(2);
    ASSERT_EQ(one.size(), 4u);
    for (std::size_t i = 0; i < one.size(); ++i) {
        // Every seeded program gets other input data...
        const isa::Program x = one[i].make()->build(4);
        const isa::Program y = two[i].make()->build(4);
        EXPECT_TRUE(x.data.bytes() != y.data.bytes()
                    || x.code.size() != y.code.size()
                    || runSim(one[i], true).counts
                           != runSim(two[i], true).counts)
            << one[i].label;
    }

    // ...and where control flow depends on the data, other counts.
    // (Stencil and matmul are data-oblivious: only values change.)
    const Pass a = runPass(select("suite", 1,
                                  {"/irregular-update/", "/atomic-histogram/"}),
                           4, true);
    const Pass b = runPass(select("suite", 2,
                                  {"/irregular-update/", "/atomic-histogram/"}),
                           4, true);
    EXPECT_EQ(a.failed() + b.failed(), 0u);
    EXPECT_NE(a.counts(), b.counts());
    for (const char *wl : {"lock4", "mesh64"}) {
        const Pass x = runPass(select(wl, 1, {"irregular"}), 1, true);
        const Pass y = runPass(select(wl, 2, {"irregular"}), 1, true);
        ASSERT_EQ(x.sims.size(), 1u) << wl;
        EXPECT_NE(x.counts(), y.counts()) << wl;
        EXPECT_NE(x.digest(), y.digest()) << wl;
    }
}

TEST(Perfbench, SeedReachesOnlySeededPrograms)
{
    const std::vector<std::string> unseeded = {
        "/spinlock-crit/TSO/4", "/dekker/TSO/4", "/pipeline/TSO/4",
        "/local-locks/TSO/4", "/radix-partition/TSO/4"};
    const Pass a = runPass(select("suite", 1, unseeded), 1, true);
    const Pass b = runPass(select("suite", 2, unseeded), 1, true);
    ASSERT_EQ(a.sims.size(), unseeded.size());
    EXPECT_EQ(a.counts(), b.counts());
    EXPECT_EQ(a.digest(), b.digest());
}

TEST(Perfbench, SuiteCountsEqualAtOneAndManyJobs)
{
    // Every program and model at 4 cores with speculation: 42 runs.
    const std::vector<SimSpec> specs = select("suite", 3, {"+spec/4"});
    ASSERT_EQ(specs.size(), 42u);
    const Pass serial = runPass(specs, 1, true);
    const Pass parallel = runPass(specs, 4, true);
    EXPECT_EQ(serial.failed() + parallel.failed(), 0u);
    EXPECT_EQ(serial.counts(), parallel.counts());
    EXPECT_EQ(serial.digest(), parallel.digest());
}

TEST(Perfbench, TracedPassRecordsEveryLayer)
{
    const Pass p = runPass(select("suite", 1, {"/dekker/TSO+spec/4"}), 1,
                           true);
    const Counts c = p.counts();
    for (const char *k :
         {"eventq.events", "core.instructions", "sb.pushed", "spec.epochs",
          "l1.accesses", "network.msgs", "l2dir.txns", "sim.cycles",
          "workload.check_reads"}) {
        ASSERT_TRUE(c.count(k)) << k;
        EXPECT_GT(c.at(k), 0) << k;
    }
    EXPECT_EQ(c.at("core.instructions"),
              static_cast<double>(p.instructions()));
}

// Known simulator defect, kept as a reproducer: with this input seed,
// radix-partition's scatter output is wrong under TSO with on-demand
// speculation at 4 cores (SC and RMO, baseline TSO and 16 cores pass).
// About one seed in six fails, so the benchmark keeps radix-partition
// at its default seed.  Enable this test with the fix, and seed
// radix-partition in the suite workload in a benchmark change.
TEST(Perfbench, DISABLED_SeededRadixPartitionUnderTsoSpeculation)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation();
    workload::RadixPartition::Params radix;
    radix.seed = 17911839290282890590ULL;
    const SimSpec spec{"radix-partition/TSO+spec/4", cfg,
                       [radix] {
                           return std::make_unique<
                               workload::RadixPartition>(radix);
                       },
                       {}};
    const SimResult r = runSim(spec, false);
    EXPECT_EQ(r.outcome, Outcome::Ok) << r.error;
}
