/**
 * @file
 * Observability tests: the structured TraceSink (recording, capping,
 * aux-name tables, Chrome trace-event export) and the System-level
 * plumbing (per-system sinks, request-lifetime events, periodic stat
 * snapshots, the --stats-json document).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hh"
#include "base/stats_json.hh"
#include "harness/sweep.hh"
#include "sim/trace_sink.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::test;

namespace
{

/** Count non-overlapping occurrences of @p needle in @p s. */
std::size_t
countOccurrences(const std::string &s, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Minimal structural JSON check: balanced braces and brackets. */
void
expectBalancedJson(const std::string &json)
{
    long braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (char c : json) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            in_string = !in_string;
            continue;
        }
        if (in_string)
            continue;
        if (c == '{')
            ++braces;
        if (c == '}')
            --braces;
        if (c == '[')
            ++brackets;
        if (c == ']')
            --brackets;
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

/** Run the quickstart workload with the given observability config. */
std::unique_ptr<harness::System>
runTracedSystem(std::uint32_t trace_mask, Tick stats_interval = 0)
{
    harness::SystemConfig cfg = testConfig(2);
    cfg.withSpeculation();
    cfg.trace_mask = trace_mask;
    cfg.stats_interval = stats_interval;
    workload::LocalLockStream::Params params;
    params.iters = 16;
    workload::LocalLockStream wl(params);
    isa::Program prog = wl.build(cfg.num_cores);
    auto sys = std::make_unique<harness::System>(cfg, prog);
    EXPECT_TRUE(sys->run());
    return sys;
}

} // namespace

TEST(TraceSink, DisabledByDefaultAndMaskGates)
{
    trace::TraceSink sink;
    EXPECT_FALSE(sink.enabled());
    EXPECT_FALSE(sink.wants(trace::Flag::Spec));
    // A record reaches the store only when the mask asks for its kind.
    sink.record(sink.registerComponent("c0"), trace::EventKind::SpecEpoch,
                1);
    EXPECT_EQ(sink.size(), 0u);

    sink.setMask(static_cast<std::uint32_t>(trace::Flag::Spec));
    EXPECT_TRUE(sink.enabled());
    EXPECT_TRUE(sink.wants(trace::Flag::Spec));
    EXPECT_FALSE(sink.wants(trace::Flag::Req));
}

TEST(TraceSink, RecordsInOrderAcrossChunks)
{
    trace::TraceSink sink;
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::Core));
    const std::uint16_t comp = sink.registerComponent("c0");
    // Cross at least one chunk boundary.
    const std::size_t n = trace::TraceSink::chunk_records + 100;
    for (std::size_t i = 0; i < n; ++i)
        sink.record(comp, trace::EventKind::CoreCommit, i, i);
    EXPECT_EQ(sink.size(), n);
    EXPECT_EQ(sink.dropped(), 0u);

    std::size_t next = 0;
    sink.forEach([&](const trace::TraceRecord &r) {
        EXPECT_EQ(r.tick, next);
        EXPECT_EQ(r.a0, next);
        EXPECT_EQ(r.comp, comp);
        ++next;
    });
    EXPECT_EQ(next, n);

    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    // Identity registrations survive a clear.
    EXPECT_EQ(sink.components().size(), 1u);
}

TEST(TraceSink, CapsAndCountsDrops)
{
    trace::TraceSink sink(8);
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::Core));
    const std::uint16_t comp = sink.registerComponent("c0");
    for (Tick t = 0; t < 20; ++t)
        sink.record(comp, trace::EventKind::CoreCommit, t);
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.dropped(), 12u);
    EXPECT_EQ(sink.lostFrom(), 8u);
}

TEST(TraceSink, AuxNamesResolvePerKind)
{
    trace::TraceSink sink;
    sink.setAuxNames(trace::EventKind::SpecRollback,
                     {"conflict", "overflow"});
    EXPECT_EQ(sink.auxName(trace::EventKind::SpecRollback, 0),
              "conflict");
    EXPECT_EQ(sink.auxName(trace::EventKind::SpecRollback, 1),
              "overflow");
    // Out of range or unregistered kinds degrade to "".
    EXPECT_EQ(sink.auxName(trace::EventKind::SpecRollback, 7), "");
    EXPECT_EQ(sink.auxName(trace::EventKind::CoreStall, 0), "");
}

TEST(TraceSink, ExportsWellFormedChromeJson)
{
    trace::TraceSink sink;
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::All));
    const std::uint16_t core = sink.registerComponent("core_0");
    const std::uint16_t l1 = sink.registerComponent("l1_0");
    sink.setAuxNames(trace::EventKind::SpecRollback, {"conflict"});

    // One of each phase: counter, duration, instant, request flow.
    sink.record(core, trace::EventKind::CoreCommit, 10, 5);
    sink.record(core, trace::EventKind::SpecEpoch, 50, 20, 12, 1);
    sink.record(core, trace::EventKind::SpecRollback, 60, 0, 4, 0);
    sink.record(l1, trace::EventKind::ReqIssue, 30, 1, 0x1000);
    sink.record(l1, trace::EventKind::ReqFill, 90, 1, 0x1000);

    std::ostringstream os;
    sink.exportChromeJson(
        os, trace::mergeRecords(sink, trace::Stream::Trace),
        sink.dropped());
    const std::string json = os.str();

    expectBalancedJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Track metadata for both components.
    EXPECT_NE(json.find("core_0"), std::string::npos);
    EXPECT_NE(json.find("l1_0"), std::string::npos);
    // The epoch is a complete ("X") event with begin tick and duration.
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    // The rollback is an instant with its decoded cause.
    EXPECT_NE(json.find("conflict"), std::string::npos);
    // The request produced a flow arrow (start + finish).
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST(SystemObservability, DisabledTracingRecordsNothing)
{
    auto sys = runTracedSystem(0);
    EXPECT_EQ(sys->tracer().size(), 0u);
    EXPECT_EQ(sys->tracer().dropped(), 0u);
}

TEST(SystemObservability, EndToEndTraceHasAllEventFamilies)
{
    auto sys = runTracedSystem(
        static_cast<std::uint32_t>(trace::Flag::All));
    ASSERT_GT(sys->tracer().size(), 0u);

    bool saw_commit = false, saw_epoch = false, saw_issue = false,
         saw_dir = false, saw_fill = false, saw_sb = false;
    sys->tracer().forEach([&](const trace::TraceRecord &r) {
        switch (static_cast<trace::EventKind>(r.kind)) {
          case trace::EventKind::CoreCommit: saw_commit = true; break;
          case trace::EventKind::SpecEpoch: saw_epoch = true; break;
          case trace::EventKind::ReqIssue: saw_issue = true; break;
          case trace::EventKind::ReqDirIngress: saw_dir = true; break;
          case trace::EventKind::ReqFill: saw_fill = true; break;
          case trace::EventKind::SbOccupancy: saw_sb = true; break;
          default: break;
        }
    });
    EXPECT_TRUE(saw_commit);
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_issue);
    EXPECT_TRUE(saw_dir);
    EXPECT_TRUE(saw_fill);
    EXPECT_TRUE(saw_sb);

    std::ostringstream os;
    sys->exportTrace(os);
    const std::string json = os.str();
    expectBalancedJson(json);
    // Request-lifetime flows cross components (≥1 start/finish pair).
    EXPECT_GE(countOccurrences(json, "\"ph\": \"s\""), 1u);
    EXPECT_GE(countOccurrences(json, "\"ph\": \"f\""), 1u);
}

TEST(SystemObservability, MaskRestrictsFamilies)
{
    auto sys = runTracedSystem(
        static_cast<std::uint32_t>(trace::Flag::Spec));
    ASSERT_GT(sys->tracer().size(), 0u);
    sys->tracer().forEach([&](const trace::TraceRecord &r) {
        const auto kind = static_cast<trace::EventKind>(r.kind);
        EXPECT_TRUE(kind == trace::EventKind::SpecEpoch ||
                    kind == trace::EventKind::SpecRollback)
            << "unexpected kind " << r.kind;
    });
}

TEST(SystemObservability, RequestLatencyDistributionsPopulated)
{
    auto sys = runTracedSystem(0);
    // Attribution stats fill in regardless of the trace mask: they are
    // ordinary Distributions, not trace events.
    const auto *l1 = sys->stats().findGroup("l1_0");
    ASSERT_NE(l1, nullptr);
    const auto *miss = l1->findDistribution("miss_latency");
    ASSERT_NE(miss, nullptr);
    EXPECT_GT(miss->samples(), 0u);
    EXPECT_GT(miss->mean(), 0.0);

    const auto *dir = sys->stats().findGroup("l2dir");
    ASSERT_NE(dir, nullptr);
    const auto *svc = dir->findDistribution("txn_service");
    ASSERT_NE(svc, nullptr);
    EXPECT_GT(svc->samples(), 0u);

    const auto *net = sys->stats().findGroup("network");
    ASSERT_NE(net, nullptr);
    const auto *lat = net->findDistribution("msg_latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->samples(), 0u);
    // Every message takes at least the configured hop latency.
    EXPECT_GE(lat->minValue(), 4.0);
}

TEST(SystemObservability, PeriodicSnapshotsFormTimeSeries)
{
    auto sys = runTracedSystem(0, 200);
    ASSERT_GE(sys->snapshots().size(), 2u);
    Tick prev = 0;
    for (const auto &snap : sys->snapshots()) {
        EXPECT_GT(snap.tick, prev);
        prev = snap.tick;
        EXPECT_NE(snap.groups_json.find("\"l1_0\""),
                  std::string::npos);
    }
}

TEST(SystemObservability, SnapshotsCarryLiveNetworkCounters)
{
    // The quickstart's speculative run on a 16-core banked mesh: every
    // snapshot reads the network as it stood at its tick.
    harness::SystemConfig cfg;
    cfg.num_cores = 16;
    cfg.withTopology(mem::Topology::Mesh).withDirBanks(4);
    cfg.withSpeculation();
    cfg.stats_interval = 2000;
    workload::LocalLockStream::Params params;
    params.iters = 128;
    workload::LocalLockStream wl(params);
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    std::uint64_t prev_msgs = 0, prev_bytes = 0, prev_hops = 0;
    std::size_t before_halt = 0;
    for (const auto &snap : sys.snapshots()) {
        if (snap.tick >= sys.runtimeCycles())
            continue;
        SCOPED_TRACE("snapshot at tick " + std::to_string(snap.tick));
        analysis::Json doc;
        std::string error;
        ASSERT_TRUE(analysis::Json::parse(snap.groups_json, doc, error))
            << error;
        const analysis::Json &net = doc["network"];
        auto scalar = [&net](const std::string &name) {
            return net["network." + name]["value"].asU64();
        };
        EXPECT_GT(scalar("msgs"), prev_msgs);
        EXPECT_GT(scalar("bytes"), prev_bytes);
        EXPECT_GT(scalar("hops"), prev_hops);
        EXPECT_LE(net["network.msg_latency"]["n"].asU64(), scalar("msgs"));
        EXPECT_GT(scalar("links_used"), 0u);
        EXPECT_GT(scalar("hot_link_msgs"), 0u);
        prev_msgs = scalar("msgs");
        prev_bytes = scalar("bytes");
        prev_hops = scalar("hops");
        ++before_halt;
    }
    EXPECT_GE(before_halt, 3u);

    // The trailing snapshot is what a run stopped there reports.
    std::ostringstream final_net;
    statistics::printJson(final_net, *sys.stats().findGroup("network"));
    ASSERT_FALSE(sys.snapshots().empty());
    EXPECT_NE(sys.snapshots().back().groups_json.find(
                  "\"network\": " + final_net.str()),
              std::string::npos);
}

TEST(SystemObservability, StatsJsonDocumentComposes)
{
    auto sys = runTracedSystem(0, 200);
    std::ostringstream os;
    sys->writeStatsJson(os);
    const std::string json = os.str();
    expectBalancedJson(json);
    EXPECT_NE(json.find("\"groups\""), std::string::npos);
    EXPECT_NE(json.find("\"snapshots\""), std::string::npos);
    EXPECT_NE(json.find("\"tick\""), std::string::npos);
    EXPECT_NE(json.find("miss_latency"), std::string::npos);
}

TEST(SystemObservability, TracedSystemsAreSweepSafe)
{
    // Per-system sinks share nothing, so traced systems running
    // concurrently under the SweepRunner must record identical,
    // deterministic traces (the CI TSan job runs this test).
    harness::SweepRunner runner(4);
    std::vector<std::function<std::size_t()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([]() -> std::size_t {
            auto sys = runTracedSystem(
                static_cast<std::uint32_t>(trace::Flag::All));
            return sys->tracer().size();
        });
    }
    const std::vector<std::size_t> sizes = runner.map(std::move(tasks));
    ASSERT_EQ(sizes.size(), 8u);
    EXPECT_GT(sizes[0], 0u);
    for (std::size_t s : sizes)
        EXPECT_EQ(s, sizes[0]);
}
