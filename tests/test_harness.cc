/**
 * @file
 * Harness tests: option parsing, table rendering, System-level
 * functional reads and aggregate queries.
 */

#include <gtest/gtest.h>

#include <regex>
#include <set>
#include <sstream>

#include "harness/options.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "tests/sim_test_util.hh"
#include "workload/kernels.hh"

using namespace fenceless;
using namespace fenceless::harness;
using namespace fenceless::test;

namespace
{

Options
parse(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "prog");
    for (auto &s : storage)
        argv.push_back(s.data());
    return Options(static_cast<int>(argv.size()), argv.data());
}

} // namespace

TEST(Options, DefaultsWhenEmpty)
{
    Options opts = parse({});
    EXPECT_FALSE(opts.csv());
    EXPECT_EQ(opts.scale(), 1u);
    SystemConfig base;
    SystemConfig cfg = opts.applyTo(base);
    EXPECT_EQ(cfg.num_cores, base.num_cores);
    EXPECT_EQ(cfg.model, base.model);
}

TEST(Options, AppliesMachineSettings)
{
    Options opts = parse({"--cores=12", "--model=rmo",
                          "--spec=continuous", "--sb-size=8",
                          "--l1-kb=16", "--l2-kb=512",
                          "--dram-latency=200", "--net-latency=3"});
    SystemConfig cfg = opts.applyTo(SystemConfig{});
    EXPECT_EQ(cfg.num_cores, 12u);
    EXPECT_EQ(cfg.model, cpu::ConsistencyModel::RMO);
    EXPECT_EQ(cfg.spec.mode, spec::SpecMode::Continuous);
    EXPECT_EQ(cfg.sb_size, 8u);
    EXPECT_EQ(cfg.l1.size, 16u * 1024);
    EXPECT_EQ(cfg.l2.size, 512u * 1024);
    EXPECT_EQ(cfg.l2.dram_latency, 200u);
    EXPECT_EQ(cfg.net.latency, 3u);
}

TEST(Options, GranularityAndOverflow)
{
    Options opts = parse({"--granularity=per-store",
                          "--overflow=rollback", "--spec=on-demand"});
    SystemConfig cfg = opts.applyTo(SystemConfig{});
    EXPECT_EQ(cfg.spec.granularity, spec::Granularity::PerStore);
    EXPECT_EQ(cfg.spec.overflow, spec::OverflowPolicy::Rollback);
    EXPECT_EQ(cfg.spec.mode, spec::SpecMode::OnDemand);
}

TEST(Options, CsvScaleSeed)
{
    Options opts = parse({"--csv", "--scale=5", "--seed=99"});
    EXPECT_TRUE(opts.csv());
    EXPECT_EQ(opts.scale(), 5u);
    EXPECT_EQ(opts.seed(), 99u);
}

TEST(Options, UnknownOptionIsFatal)
{
    EXPECT_EXIT(parse({"--bogus"}), testing::ExitedWithCode(1),
                "unknown option");
}

TEST(Options, HelpMatchesGolden)
{
    testing::internal::CaptureStdout();
    Options::printUsage("prog");
    expectGolden("help_golden.txt", testing::internal::GetCapturedStdout());
}

TEST(Options, EveryOutputOptionFailsFastOnAnUnwritablePath)
{
    // Every option --help lists that names an output file (*-out,
    // *-json) must be refused at parse time when it cannot be opened.
    testing::internal::CaptureStdout();
    Options::printUsage("prog");
    const std::string usage = testing::internal::GetCapturedStdout();
    const std::regex output_opt("--([a-z-]+-(out|json))=");
    std::set<std::string> names;
    for (auto it = std::sregex_iterator(usage.begin(), usage.end(),
                                        output_opt);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1]);
    EXPECT_EQ(names.size(), 6u);
    for (const std::string &name : names) {
        EXPECT_EXIT(parse({"--" + name + "=/nonexistent-dir/x"}),
                    testing::ExitedWithCode(1),
                    "fatal: --" + name + ": cannot open")
            << name;
    }
}

TEST(Options, TopologyAndBankingFlags)
{
    SystemConfig cfg = parse({"--topology=mesh", "--hop-latency=5",
                              "--dir-banks=8"})
                           .applyTo(SystemConfig{});
    EXPECT_EQ(cfg.net.topology, mem::Topology::Mesh);
    EXPECT_EQ(cfg.net.hop_latency, 5u);
    EXPECT_EQ(cfg.dir_banks, 8u);

    cfg = parse({"--topology=ring"}).applyTo(SystemConfig{});
    EXPECT_EQ(cfg.net.topology, mem::Topology::Ring);

    // The bank count changes the simulated machine, so a bad one is
    // refused like a bad topology, never rounded to another machine.
    for (const char *arg : {"--dir-banks=6", "--dir-banks=0",
                            "--dir-banks=128"}) {
        EXPECT_EXIT(parse({arg}).applyTo(SystemConfig{}),
                    testing::ExitedWithCode(1),
                    "fatal: directory banks must be a power of two")
            << arg;
    }
}

TEST(Options, UnknownTopologyIsFatal)
{
    EXPECT_EXIT(parse({"--topology=torus"}).applyTo(SystemConfig{}),
                testing::ExitedWithCode(1), "unknown topology");
}

TEST(Options, SimModeEchoedIntoProvenance)
{
    // How the run was invoked must be recoverable from any output
    // document: stats, trace, and blackbox all embed the provenance
    // object, which carries the sim_mode stanza.
    isa::Assembler as;
    as.nop();
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(2), prog);
    ASSERT_TRUE(sys.run());
    EXPECT_NE(sys.provenanceJson().find(
                  "\"sim_mode\": {\"dir_banks\": 1, "
                  "\"topology\": \"crossbar\"}"),
              std::string::npos);

    for (auto write : {&harness::System::writeStatsJson,
                       &harness::System::exportTrace,
                       &harness::System::writeBlackbox}) {
        std::ostringstream os;
        (sys.*write)(os);
        EXPECT_NE(os.str().find("\"sim_mode\""), std::string::npos);
    }
}

TEST(Options, BadNumberIsFatal)
{
    EXPECT_EXIT(parse({"--cores=banana"}).applyTo(SystemConfig{}),
                testing::ExitedWithCode(1), "expects a number");
    // A sign (which would wrap) and trailing junk (which would be cut
    // off) are refused, not read as the number in front of them.
    for (const char *arg : {"--cores=4abc", "--cores=-1", "--cores= 4",
                            "--tail-sample=-1", "--tail-sample=64x",
                            "--blackbox=-1", "--seed=-3", "--jobs=2x"}) {
        EXPECT_EXIT(parse({arg}).applyTo(SystemConfig{}),
                    testing::ExitedWithCode(1),
                    "fatal: option --.* expects a number")
            << arg;
    }
    // So are values the target field cannot hold: --cores=4294967300
    // would otherwise run 4 cores, and a huge --blackbox would ask the
    // ring round-up for more than it can size.
    for (const char *arg : {"--cores=4294967300", "--outliers=4294967296",
                            "--blackbox=1048577",
                            "--blackbox=18446744073709551615",
                            "--blackbox=18446744073709551616",
                            "--l1-kb=18014398509481984"}) {
        EXPECT_EXIT(parse({arg}).applyTo(SystemConfig{}),
                    testing::ExitedWithCode(1),
                    "fatal: option --.* is out of range")
            << arg;
    }
    // Numbers that parse but name a machine the simulator cannot
    // build are refused up front instead of panicking (or, for
    // --scale=0, spinning) later.
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--cores=0"}, {"--cores=65"}, {"--sb-size=0"},
             {"--l1-kb=0"}, {"--l1-kb=3"}, {"--l2-kb=3000"},
             {"--hop-latency=0", "--topology=mesh"}, {"--scale=0"}}) {
        EXPECT_EXIT(parse(args).applyTo(SystemConfig{}),
                    testing::ExitedWithCode(1), "fatal: ")
            << args.front();
    }
    // The largest values the fields hold are still accepted.
    const SystemConfig cfg = parse({"--cores=64", "--blackbox=1048576"})
                                 .applyTo(SystemConfig{});
    EXPECT_EQ(cfg.num_cores, 64u);
    EXPECT_EQ(cfg.blackbox_records, 1048576u);
}

TEST(Table, AlignedRendering)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "12345"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("12345"), std::string::npos);
    // All lines equal width (aligned columns).
    std::istringstream is(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width) << "line: " << line;
    }
}

TEST(Table, CsvRendering)
{
    Table t({"a", "b"});
    t.addRow({"x", "1"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,1\n");
}

TEST(Table, Fmt)
{
    EXPECT_EQ(fmt(1.2345), "1.23");
    EXPECT_EQ(fmt(1.2345, 3), "1.234");
    EXPECT_EQ(fmt(10.0, 0), "10");
}

TEST(SystemQueries, DebugReadSeesFreshestCopy)
{
    // Core 0 writes and keeps the block in M; debugRead must return the
    // L1 copy, not the stale L2/DRAM one.
    isa::Assembler as;
    const Addr var = as.word("var", 1);
    as.bne(isa::tp, isa::x0, "done");
    as.li(isa::a0, var);
    as.li(isa::t0, 99);
    as.st(isa::t0, isa::a0);
    as.label("done");
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(2), prog);
    ASSERT_TRUE(sys.run());
    const mem::L1Block *blk = sys.l1(0).findBlock(var);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->state, mem::L1State::M);
    EXPECT_EQ(sys.debugRead(var, 8), 99u);
}

namespace
{

/** The directory bank whose slice @p addr falls in. */
const mem::Directory &
homeBank(const harness::System &sys, Addr addr)
{
    const std::uint32_t bank = static_cast<std::uint32_t>(
        addr / sys.config().l2.block_size) & (sys.dirBanks() - 1);
    return sys.directoryBank(bank);
}

/** The home bank's L2 block for @p addr (nullptr if not cached). */
const mem::L2Block *
homeBlock(const harness::System &sys, Addr addr)
{
    return homeBank(sys, addr).findBlock(addr);
}

/**
 * Reference read: probe every L1 for an M/E copy, in core order, then
 * fall back to the home bank (L2, else DRAM).
 */
std::uint64_t
fullProbeRead(harness::System &sys, Addr addr, unsigned size)
{
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        std::uint64_t v = 0;
        if (sys.l1(i).debugRead(addr, size, v))
            return v;
    }
    return homeBank(sys, addr).debugRead(addr, size);
}

/** @return true if some L1 holds a block in @p state. */
bool
anyL1In(harness::System &sys, mem::L1State state)
{
    bool seen = false;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        sys.l1(i).forEachBlock([&](const mem::L1Block &b) {
            seen = seen || b.state == state;
        });
    }
    return seen;
}

/**
 * Compare System::debugRead with fullProbeRead on every word of every
 * block any L1 or L2 bank holds.  @return the words compared.
 */
std::size_t
expectDebugReadMatchesProbe(harness::System &sys)
{
    std::set<Addr> blocks;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        sys.l1(i).forEachBlock([&](const mem::L1Block &b) {
            blocks.insert(b.block_addr);
        });
    }
    for (std::uint32_t b = 0; b < sys.dirBanks(); ++b) {
        sys.directoryBank(b).forEachBlock([&](const mem::L2Block &l2) {
            blocks.insert(l2.block_addr);
        });
    }
    std::size_t words = 0, mismatches = 0;
    for (const Addr blk : blocks) {
        for (Addr a = blk; a < blk + sys.config().l2.block_size; a += 8) {
            ++words;
            const std::uint64_t got = sys.debugRead(a, 8);
            const std::uint64_t want = fullProbeRead(sys, a, 8);
            if (got != want && mismatches++ == 0) {
                ADD_FAILURE() << "debugRead(0x" << std::hex << a
                              << ") = 0x" << got << ", full probe 0x"
                              << want;
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << words << " words";
    return words;
}

} // namespace

TEST(SystemQueries, DebugReadMatchesFullProbe)
{
    using namespace isa;

    {
        SCOPED_TRACE("64-core mesh, 8 banks");
        workload::IrregularUpdate::Params p;
        p.updates = 24;
        p.seed = 5;
        workload::IrregularUpdate wl(p);
        harness::SystemConfig cfg = testConfig(64);
        cfg.withTopology(mem::Topology::Mesh).withDirBanks(8);
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        ASSERT_TRUE(sys.run());
        std::string error;
        EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
            << error;
        sys.auditCoherence();
        EXPECT_TRUE(anyL1In(sys, mem::L1State::M));
        EXPECT_GT(expectDebugReadMatchesProbe(sys), 0u);
    }
    {
        SCOPED_TRACE("E owner");
        Assembler as;
        const Addr var = as.paddedWord("var", 31);
        as.bne(tp, x0, "done");
        as.li(a0, var);
        as.ld(t0, a0);
        as.label("done");
        as.halt();
        harness::System sys(testConfig(2), as.finish());
        ASSERT_TRUE(sys.run());
        const mem::L1Block *blk = sys.l1(0).findBlock(var);
        ASSERT_NE(blk, nullptr);
        EXPECT_EQ(blk->state, mem::L1State::E);
        ASSERT_NE(homeBlock(sys, var), nullptr);
        EXPECT_EQ(homeBlock(sys, var)->owner, 0u);
        EXPECT_EQ(sys.debugRead(var, 8), 31u);
        EXPECT_GT(expectDebugReadMatchesProbe(sys), 0u);
    }
    {
        SCOPED_TRACE("S only");
        Assembler as;
        const Addr var = as.paddedWord("var", 32);
        as.li(a0, var);
        as.ld(t0, a0);
        as.halt();
        harness::System sys(testConfig(2), as.finish());
        ASSERT_TRUE(sys.run());
        for (std::uint32_t i = 0; i < 2; ++i) {
            const mem::L1Block *blk = sys.l1(i).findBlock(var);
            ASSERT_NE(blk, nullptr);
            EXPECT_EQ(blk->state, mem::L1State::S);
        }
        ASSERT_NE(homeBlock(sys, var), nullptr);
        EXPECT_FALSE(homeBlock(sys, var)->hasOwner());
        EXPECT_EQ(sys.debugRead(var, 8), 32u);
        EXPECT_GT(expectDebugReadMatchesProbe(sys), 0u);
    }
    {
        SCOPED_TRACE("MStale after a rollback");
        // Core 0 reads `flag` (0), opens an epoch behind a missing
        // store and speculatively writes `victim`, which RMO drains
        // ahead of the miss.  Core 1's store to `flag` rolls the epoch
        // back; the replay reads the new flag and skips the write, so
        // `victim` stays MStale.  Sweep core 1's delay until its store
        // lands inside the epoch.
        bool seen = false;
        for (std::int64_t delay = 0; delay <= 200 && !seen; delay += 4) {
            Assembler as;
            const Addr sink = as.paddedWord("sink", 0);
            const Addr victim = as.paddedWord("victim", 1111);
            const Addr flag = as.paddedWord("flag", 0);
            as.bne(tp, x0, "poker");
            as.li(a0, sink);
            as.li(a1, victim);
            as.li(a2, flag);
            as.ld(t1, a2);
            as.ld(t2, a1); // victim in E: the speculative store hits
            as.bne(t1, x0, "skip");
            as.li(t0, 1);
            as.st(t0, a0);
            as.fence();
            as.ld(t1, a2);
            as.bne(t1, x0, "skip");
            as.li(t0, 2222);
            as.st(t0, a1);
            as.label("skip");
            as.halt();
            as.label("poker");
            as.li(a2, flag);
            as.li(s0, delay);
            as.label("wait");
            as.beq(s0, x0, "poke");
            as.addi(s0, s0, -1);
            as.jump("wait");
            as.label("poke");
            as.li(t0, 7);
            as.st(t0, a2);
            as.halt();
            harness::SystemConfig cfg =
                testConfig(2, cpu::ConsistencyModel::RMO);
            cfg.withSpeculation();
            harness::System sys(cfg, as.finish());
            ASSERT_TRUE(sys.run());
            sys.auditCoherence();
            const mem::L1Block *blk = sys.l1(0).findBlock(victim);
            if (!blk || blk->state != mem::L1State::MStale)
                continue;
            seen = true;
            EXPECT_EQ(sys.debugRead(victim, 8), 1111u);
            EXPECT_GT(expectDebugReadMatchesProbe(sys), 0u);
        }
        EXPECT_TRUE(seen) << "no delay left `victim` MStale";
    }
    {
        SCOPED_TRACE("evicted by PutM");
        // Eight dirty blocks in one set of a 4-way L1: the first four
        // are written back with PutM and survive only in the L2.
        Assembler as;
        const std::uint64_t stride = 1024; // 4 KiB / 4 ways = 1 KiB
        const Addr arr = as.alloc("arr", 8 * stride, stride);
        as.li(a0, arr);
        as.li(s0, 8);
        as.li(t0, 0);
        as.label("loop");
        as.addi(t0, t0, 11);
        as.st(t0, a0);
        as.addi(a0, a0, static_cast<std::int64_t>(stride));
        as.addi(s0, s0, -1);
        as.bne(s0, x0, "loop");
        as.halt();
        harness::System sys(testConfig(1), as.finish());
        ASSERT_TRUE(sys.run());
        sys.auditCoherence();
        EXPECT_EQ(sys.l1(0).findBlock(arr), nullptr);
        const mem::L2Block *l2 = homeBlock(sys, arr);
        ASSERT_NE(l2, nullptr);
        EXPECT_TRUE(l2->dirty);
        EXPECT_FALSE(l2->hasOwner());
        EXPECT_EQ(sys.debugRead(arr, 8), 11u);
        EXPECT_GT(expectDebugReadMatchesProbe(sys), 0u);
    }
}

TEST(SystemQueries, AggregatesAndQuiescence)
{
    isa::Assembler as;
    as.nop();
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(3);
    cfg.spec.mode = spec::SpecMode::OnDemand;
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.totalInstructions(), 6u); // (nop + halt) x 3
    EXPECT_EQ(sys.totalCommits(), 0u);
    EXPECT_EQ(sys.totalRollbacks(), 0u);
    EXPECT_TRUE(sys.quiesced());
    EXPECT_NE(sys.specController(0), nullptr);
}

TEST(SystemQueries, TimeoutReported)
{
    isa::Assembler as;
    as.label("spin");
    as.jump("spin");
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(1);
    cfg.max_cycles = 5000;
    harness::System sys(cfg, prog);
    EXPECT_FALSE(sys.run());
}
