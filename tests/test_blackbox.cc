/**
 * @file
 * Incident-observability tests: the flight recorder (ring capture and
 * dump), the hang watchdog (a seeded true deadlock fires it; slow and
 * rollback-heavy-but-live runs do not), the wait-for graph (cycle
 * detection and deterministic printing), and the stall dossier.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/blackbox.hh"
#include "sim/waitgraph.hh"
#include "sim/watchdog.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::test;
using sim::WaitGraph;
using sim::WaitNode;

namespace
{

WaitNode
coreNode(std::uint32_t i)
{
    return {WaitNode::Kind::Core, i, 0};
}

WaitNode
mshrNode(std::uint32_t i, Addr a)
{
    return {WaitNode::Kind::Mshr, i, a};
}

WaitNode
txnNode(Addr a)
{
    return {WaitNode::Kind::DirTxn, 0, a};
}

std::string
printGraph(const WaitGraph &g)
{
    std::ostringstream os;
    g.print(os);
    return os.str();
}

/** Build the seeded-deadlock system with the Fwd*Ack fault injection. */
std::unique_ptr<harness::System>
buildDeadlockedSystem(workload::SeededDeadlock &wl,
                      harness::SystemConfig cfg)
{
    isa::Program prog = wl.build(cfg.num_cores);
    cfg.net.drop_fwd_acks_for = {wl.blockX(), wl.blockY()};
    return std::make_unique<harness::System>(cfg, prog);
}

} // namespace

// ---------------------------------------------------------------------
// WaitGraph
// ---------------------------------------------------------------------

TEST(WaitGraph, AcyclicGraphHasNoCycles)
{
    WaitGraph g;
    g.addEdge(coreNode(0), mshrNode(0, 0x100), "load miss");
    g.addEdge(mshrNode(0, 0x100), txnNode(0x100), "GetS");
    EXPECT_TRUE(g.cycles().empty());
    const std::string out = printGraph(g);
    EXPECT_NE(out.find("no wait-for cycle"), std::string::npos);
    EXPECT_EQ(out.find("DEADLOCK CYCLE"), std::string::npos);
}

TEST(WaitGraph, SimpleCycleFound)
{
    WaitGraph g;
    g.addEdge(coreNode(0), coreNode(1), "waits");
    g.addEdge(coreNode(1), coreNode(0), "waits");
    const auto cycles = g.cycles();
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0].size(), 2u);
    EXPECT_EQ(cycles[0][0], coreNode(0)); // rooted at smallest node
    EXPECT_NE(printGraph(g).find("DEADLOCK CYCLE: core_0 -> core_1 "
                                 "-> core_0"),
              std::string::npos);
}

TEST(WaitGraph, CycleOutputIndependentOfEdgeOrder)
{
    // The six-node shape the seeded deadlock produces, registered in
    // two different orders.
    const std::vector<std::pair<WaitNode, WaitNode>> edges = {
        {coreNode(0), mshrNode(0, 0x100)},
        {mshrNode(0, 0x100), txnNode(0x100)},
        {txnNode(0x100), coreNode(1)},
        {coreNode(1), mshrNode(1, 0x140)},
        {mshrNode(1, 0x140), txnNode(0x140)},
        {txnNode(0x140), coreNode(0)},
    };
    WaitGraph fwd, rev;
    for (const auto &[a, b] : edges)
        fwd.addEdge(a, b, "x");
    for (auto it = edges.rbegin(); it != edges.rend(); ++it)
        rev.addEdge(it->first, it->second, "x");
    ASSERT_EQ(fwd.cycles().size(), 1u);
    EXPECT_EQ(fwd.cycles(), rev.cycles());
    EXPECT_EQ(fwd.cycles()[0].size(), 6u);
}

TEST(WaitGraph, TwoDisjointCyclesBothReported)
{
    WaitGraph g;
    g.addEdge(coreNode(0), coreNode(1), "a");
    g.addEdge(coreNode(1), coreNode(0), "b");
    g.addEdge(coreNode(2), coreNode(3), "c");
    g.addEdge(coreNode(3), coreNode(2), "d");
    EXPECT_EQ(g.cycles().size(), 2u);
}

TEST(WaitGraph, SelfLoopIsACycle)
{
    WaitGraph g;
    g.addEdge(coreNode(5), coreNode(5), "spin");
    ASSERT_EQ(g.cycles().size(), 1u);
    EXPECT_EQ(g.cycles()[0].size(), 1u);
}

TEST(WaitGraph, DuplicateEdgesDoNotDuplicateCycles)
{
    WaitGraph g;
    g.addEdge(coreNode(0), coreNode(1), "a");
    g.addEdge(coreNode(0), coreNode(1), "a again");
    g.addEdge(coreNode(1), coreNode(0), "b");
    EXPECT_EQ(g.cycles().size(), 1u);
}

TEST(WaitGraph, NodeNames)
{
    EXPECT_EQ(coreNode(3).toString(), "core_3");
    EXPECT_EQ(mshrNode(1, 0x1040).toString(), "l1_1.mshr[0x1040]");
    EXPECT_EQ(txnNode(0x80).toString(), "l2dir.txn[0x80]");
    EXPECT_EQ((WaitNode{WaitNode::Kind::StoreBuffer, 2, 0}).toString(),
              "core_2.sb");
    EXPECT_EQ((WaitNode{WaitNode::Kind::Dram, 0, 0}).toString(),
              "dram");
}

// ---------------------------------------------------------------------
// Watchdog: the seeded deadlock fires it with a named cycle
// ---------------------------------------------------------------------

TEST(Watchdog, SeededDeadlockFiresWithNamedCycle)
{
    workload::SeededDeadlock wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 5'000;
    auto sys = buildDeadlockedSystem(wl, cfg);

    EXPECT_FALSE(sys->run());
    EXPECT_TRUE(sys->hung());
    EXPECT_EQ(sys->watchdogReport().cause,
              sim::Watchdog::Cause::NoRetirement);

    const std::string &dossier = sys->dossier();
    EXPECT_NE(dossier.find("DEADLOCK CYCLE"), std::string::npos);
    // The cycle names both cores, both MSHRs and both directory
    // transactions: who waits on what, held by whom.
    EXPECT_NE(dossier.find("core_0"), std::string::npos);
    EXPECT_NE(dossier.find("core_1"), std::string::npos);
    EXPECT_NE(dossier.find("l1_0.mshr["), std::string::npos);
    EXPECT_NE(dossier.find("l2dir.txn["), std::string::npos);
    EXPECT_NE(dossier.find("awaiting Fwd*Ack"), std::string::npos);
    // Architectural state and flight-recorder tail ride along.
    EXPECT_NE(dossier.find("architectural state:"), std::string::npos);
    EXPECT_NE(dossier.find("flight recorder tail"), std::string::npos);
    EXPECT_NE(dossier.find("cause=no-retirement"), std::string::npos);
}

TEST(Watchdog, DeadlockDossierIsDeterministic)
{
    std::string dossiers[2];
    for (std::string &d : dossiers) {
        workload::SeededDeadlock wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.watchdog_interval = 5'000;
        auto sys = buildDeadlockedSystem(wl, cfg);
        EXPECT_FALSE(sys->run());
        d = sys->dossier();
    }
    EXPECT_EQ(dossiers[0], dossiers[1]);
}

TEST(Watchdog, DeadlockDossierIdenticalAcrossSweepJobs)
{
    // The same deadlocked run placed on a 1-thread and a 4-thread
    // SweepRunner must produce byte-identical dossiers: dossier
    // construction only reads the run's own SimContext.
    auto run_one = []() -> std::string {
        workload::SeededDeadlock wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.watchdog_interval = 5'000;
        auto sys = buildDeadlockedSystem(wl, cfg);
        sys->run();
        return sys->dossier();
    };
    std::vector<std::vector<std::string>> by_jobs;
    for (unsigned jobs : {1u, 4u}) {
        harness::SweepRunner runner(jobs);
        std::vector<std::function<std::string()>> tasks(4, run_one);
        by_jobs.push_back(runner.map(std::move(tasks)));
    }
    ASSERT_EQ(by_jobs[0].size(), by_jobs[1].size());
    for (std::size_t i = 0; i < by_jobs[0].size(); ++i) {
        EXPECT_FALSE(by_jobs[0][i].empty());
        EXPECT_EQ(by_jobs[0][i], by_jobs[1][i]);
    }
}

TEST(Watchdog, HealthyRunOfSeededWorkloadPasses)
{
    // Without the fault injection the same program terminates and
    // verifies: the deadlock really is the injected fault.
    workload::SeededDeadlock wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 5'000;
    runWorkload(wl, cfg);
}

// ---------------------------------------------------------------------
// Watchdog: no false positives
// ---------------------------------------------------------------------

TEST(Watchdog, SlowMemoryDoesNotFalsePositive)
{
    // 320-cycle DRAM with a watchdog window barely above it: every
    // window still retires something, so the watchdog must stay quiet.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(4);
    cfg.l2.dram_latency = 320;
    cfg.watchdog_interval = 2'000;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_FALSE(sys.hung());
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
}

TEST(Watchdog, RollbackHeavyRunDoesNotFalsePositive)
{
    // Dekker under speculative SC rolls back constantly, but the
    // exponential cooldown guarantees retirement in every window --
    // neither NoRetirement nor RollbackStorm may fire.
    workload::Dekker wl;
    harness::SystemConfig cfg =
        testConfig(2, cpu::ConsistencyModel::SC);
    cfg.withSpeculation();
    cfg.watchdog_interval = 2'000;
    cfg.watchdog_storm = 16; // tight threshold on purpose
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_FALSE(sys.hung());
    EXPECT_GT(sys.totalRollbacks(), 0u)
        << "test should exercise a rollback-heavy run";
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
}

TEST(Watchdog, StatsUnchangedByWatchdog)
{
    // The watchdog is pure observation: cycle counts and instruction
    // counts are identical with it on or off.
    std::pair<Tick, std::uint64_t> off, on;
    for (Tick interval : {Tick(0), Tick(1'000)}) {
        workload::LocalLockStream wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.watchdog_interval = interval;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        ASSERT_TRUE(sys.run());
        auto &slot = interval == 0 ? off : on;
        slot = {sys.runtimeCycles(), sys.totalInstructions()};
    }
    EXPECT_EQ(off, on);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(Blackbox, RingWrapsAndDumpIsValidTrace)
{
    // A tiny ring on a long run: the ring must wrap many times and
    // still dump a valid Chrome trace-event document with provenance.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.blackbox_records = 4;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const trace::TraceSink &sink = sys.tracer();
    EXPECT_GT(sink.ringPushes(),
              static_cast<std::uint64_t>(sink.ringCapacity()))
        << "run too short to wrap the ring";

    std::ostringstream os;
    sys.writeBlackbox(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);
    EXPECT_NE(json.find("\"git\""), std::string::npos);

    // Ring entries replay oldest -> newest with monotone sequence.
    const auto records =
        trace::mergeRecords(sink, trace::Stream::Ring);
    EXPECT_FALSE(records.empty());
}

TEST(Blackbox, DisabledRingRecordsNothing)
{
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    cfg.blackbox_records = 0;
    cfg.watchdog_interval = 0;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.tracer().ringPushes(), 0u);
    EXPECT_TRUE(trace::mergeRecords(sys.tracer(), trace::Stream::Ring)
                    .empty());
}

TEST(Blackbox, RecorderDoesNotChangeSimulation)
{
    std::pair<Tick, std::uint64_t> with, without;
    for (std::size_t records : {std::size_t(0), std::size_t(256)}) {
        workload::LocalLockStream wl;
        harness::SystemConfig cfg = testConfig(2);
        cfg.blackbox_records = records;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        ASSERT_TRUE(sys.run());
        auto &slot = records == 0 ? without : with;
        slot = {sys.runtimeCycles(), sys.totalInstructions()};
    }
    EXPECT_EQ(with, without);
}

TEST(Blackbox, TailNamesComponentsAndEvents)
{
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::ostringstream os;
    trace::writeBlackboxTail(os, sys.tracer());
    const std::string tail = os.str();
    EXPECT_NE(tail.find("flight recorder tail"), std::string::npos);
    EXPECT_NE(tail.find("l1_0:"), std::string::npos);
    EXPECT_NE(tail.find("l2dir:"), std::string::npos);
}

// ---------------------------------------------------------------------
// On-demand dossier of a healthy system
// ---------------------------------------------------------------------

TEST(Dossier, HealthySystemReportsNoCycle)
{
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::ostringstream os;
    harness::writeStallDossier(os, sys, sys.curTick());
    const std::string dossier = os.str();
    EXPECT_NE(dossier.find("stall dossier"), std::string::npos);
    EXPECT_NE(dossier.find("architectural state:"), std::string::npos);
    EXPECT_EQ(dossier.find("DEADLOCK CYCLE"), std::string::npos);
}

TEST(Dossier, WatchdogDossierMatchesGolden)
{
    // deadlock_demo's machine (CI diffs that binary's stdout against
    // the same golden): default caches, 2 TSO cores, a 5000-cycle
    // watchdog window.
    workload::SeededDeadlock wl;
    harness::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.watchdog_interval = 5'000;
    auto sys = buildDeadlockedSystem(wl, cfg);
    ASSERT_FALSE(sys->run());
    ASSERT_TRUE(sys->hung());
    expectGolden("deadlock_dossier_golden.txt",
                 normalizeBuild(sys->dossier()));
}

TEST(Dossier, PanicPrintsIncidentDump)
{
    // A panic mid-run prints the architectural state of every core and
    // the flight-recorder tail before aborting.
    workload::LocalLockStream wl;
    harness::SystemConfig cfg = testConfig(2);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    sys.context().eventq.scheduleOneShot(
        10, [] { panic("injected invariant failure"); });
    EXPECT_DEATH(sys.run(), "incident dump.*core_1: pc=.*"
                            "flight recorder tail");
}
