/**
 * @file
 * Tail-latency observability: per-request span tracing.
 *
 * The guarantees under test, in the order the ISSUE states them:
 *
 *  - sampling is a pure function of the request id, so the traced set
 *    -- and every derived artifact (stage-attribution table, top-K
 *    dossiers, "tailtrace" stat group) -- is byte-identical across
 *    --jobs values;
 *  - spans record stage-boundary events only, so the per-stage cycle
 *    sums tile the end-to-end latency EXACTLY, span by span and in the
 *    aggregate reconciliation line of --tail-report;
 *  - the top-K dossier selection is deterministic: (latency desc,
 *    request sequence asc), K respected;
 *  - with tracing off (tail_sample == 0) the subsystem contributes
 *    zero output bytes: no "tailtrace" stat group, no req_stage trace
 *    records, stats JSON byte-identical to a config that never heard
 *    of span tracing;
 *  - boundaries are ReqSpan records in the one TraceSink: the encoding
 *    is lossless, they never reach the flight recorder or the raw
 *    trace export, and a boundary the record cap dropped makes its
 *    span incomplete, never a made-up one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/reqtrace.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::reqtrace;

// ---------------------------------------------------------------------
// sampling: pure function of the request id
// ---------------------------------------------------------------------

TEST(ReqTraceSampling, RequestZeroNeverSampled)
{
    // req_id 0 marks control traffic (recalls) that has no issuing
    // request; it must never enter the sampled set, even at period 1.
    trace::TraceSink sink;
    sink.configureSampling(1);
    EXPECT_FALSE(sink.sampled(0));
    EXPECT_TRUE(sink.sampled(1));
}

TEST(ReqTraceSampling, PeriodOneSamplesEverything)
{
    trace::TraceSink sink;
    sink.configureSampling(1);
    for (std::uint64_t id = 1; id < 1000; ++id)
        EXPECT_TRUE(sink.sampled(id)) << id;
}

TEST(ReqTraceSampling, SampledSetIsADeterministicSubset)
{
    // The period-N set must be a subset of the period-1 set selected
    // by the id mix alone -- no state, no order dependence.
    trace::TraceSink s64;
    s64.configureSampling(64);
    std::set<std::uint64_t> first, second;
    for (std::uint64_t id = 1; id < 100000; ++id) {
        if (s64.sampled(id))
            first.insert(id);
    }
    for (std::uint64_t id = 99999; id >= 1; --id) {
        if (s64.sampled(id))
            second.insert(id);
    }
    EXPECT_EQ(first, second);
    // splitmix64 mixes well enough that the rate lands near 1/64.
    EXPECT_GT(first.size(), 99999 / 64 / 2);
    EXPECT_LT(first.size(), 99999 / 64 * 2);
    // The selection is the hash-threshold slice (a compare, not a
    // modulo, so the hot-path predicate never divides).
    for (std::uint64_t id : first)
        EXPECT_LE(trace::mixReqId(id), ~0ULL / 64);
}

TEST(ReqTraceSampling, DisabledSinkRecordsNothing)
{
    trace::TraceSink sink;
    // Not sampling: span records are not admitted, and no id is
    // sampled -- not even with every --trace flag on.
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::All));
    EXPECT_EQ(sink.samplePeriod(), 0u);
    EXPECT_FALSE(sink.wants(trace::Flag::Span));
    EXPECT_FALSE(sink.sampled(1));
    recordSpan(sink, sink.registerComponent("l1_0"), 1, 1, Stage::ReqNet,
               0x40);
    EXPECT_EQ(sink.size(), 0u);
}

// ---------------------------------------------------------------------
// one sink: the ReqSpan encoding and its isolation
// ---------------------------------------------------------------------

namespace
{

/** Just enough of a SimObject for FL_SPAN. */
struct SpanSite
{
    trace::TraceSink &sink;
    std::uint16_t id;
    Tick now = 0;

    trace::TraceSink &tracer() { return sink; }
    std::uint16_t traceId() const { return id; }
    Tick curTick() const { return now; }
};

} // namespace

TEST(SpanEncoding, RoundTripsEveryField)
{
    trace::TraceSink sink;
    sink.configureSampling(1);
    SpanSite l1{sink, sink.registerComponent("l1_0")};
    SpanSite dir{sink, sink.registerComponent("l2dir")};
    const std::uint64_t req = (3ULL << 40) | 12345;
    const Addr top_block = (1ULL << span_block_bits) - 64;

    l1.now = 7;
    FL_SPAN(l1, req, Stage::ReqNet, top_block, UINT32_MAX);
    dir.now = 9;
    FL_SPAN(dir, req, Stage::DirInv, 0x1040, 17u);
    l1.now = 11;
    FL_SPAN(l1, req, Stage::ReqNet, top_block, 0x400u, span_flag_retry);
    FL_SPAN(l1, req, Stage::L1Queue, top_block, UINT32_MAX,
            span_flag_waiter);
    l1.now = 30;
    FL_SPAN(l1, req, Stage::Done, top_block, 1u);

    std::vector<trace::TraceRecord> got;
    sink.forEach([&](const trace::TraceRecord &r) { got.push_back(r); });
    ASSERT_EQ(got.size(), 5u);
    for (const trace::TraceRecord &r : got) {
        EXPECT_EQ(r.kind,
                  static_cast<std::uint16_t>(trace::EventKind::ReqSpan));
        EXPECT_EQ(r.a0, req);
    }
    EXPECT_EQ(got[0].tick, 7u);
    EXPECT_EQ(got[0].comp, l1.id);
    EXPECT_EQ(spanStage(got[0]), Stage::ReqNet);
    EXPECT_EQ(spanBlock(got[0]), top_block);
    EXPECT_EQ(spanFlags(got[0]), 0u);
    EXPECT_EQ(got[0].aux, UINT32_MAX);

    EXPECT_EQ(got[1].comp, dir.id);
    EXPECT_EQ(spanStage(got[1]), Stage::DirInv);
    EXPECT_EQ(spanBlock(got[1]), 0x1040u);
    EXPECT_EQ(got[1].aux, 17u);

    EXPECT_EQ(spanStage(got[2]), Stage::ReqNet);
    EXPECT_EQ(spanFlags(got[2]), span_flag_retry);
    EXPECT_EQ(got[2].aux, 0x400u);

    EXPECT_EQ(spanStage(got[3]), Stage::L1Queue);
    EXPECT_EQ(spanFlags(got[3]), span_flag_waiter);
    EXPECT_EQ(spanBlock(got[3]), top_block);
    EXPECT_EQ(got[3].aux, UINT32_MAX);

    EXPECT_EQ(got[4].tick, 30u);
    EXPECT_EQ(spanStage(got[4]), Stage::Done);

    // Every stage survives the stage field.
    for (std::size_t st = 0; st < num_stages; ++st) {
        const trace::TraceRecord r = spanRecord(
            1, 0, static_cast<Stage>(st), 0, top_block, UINT32_MAX,
            span_flag_retry | span_flag_waiter);
        EXPECT_EQ(spanStage(r), static_cast<Stage>(st));
        EXPECT_EQ(spanBlock(r), top_block);
        EXPECT_EQ(spanFlags(r), span_flag_retry | span_flag_waiter);
    }
}

TEST(SpanEncoding, UnsampledRequestsAreNotRecorded)
{
    trace::TraceSink sink;
    sink.configureSampling(64);
    SpanSite l1{sink, sink.registerComponent("l1_0")};
    std::uint64_t sampled = 0;
    for (std::uint64_t id = 1; id <= 1000; ++id) {
        FL_SPAN(l1, id, Stage::ReqNet, 0x40);
        sampled += sink.sampled(id);
    }
    EXPECT_EQ(sink.size(), sampled);
    // Request id 0 (control traffic) never records.
    FL_SPAN(l1, 0, Stage::ReqNet, 0x40);
    EXPECT_EQ(sink.size(), sampled);
}

TEST(SpanEncodingDeathTest, OversizedFieldsPanicInsteadOfTruncating)
{
    EXPECT_DEATH(spanRecord(1, 0, Stage::Done, 0, 1ULL << span_block_bits),
                 "does not fit a ReqSpan record");
    EXPECT_DEATH(spanRecord(1, 0, Stage::Done, 0, 0x40, 0, 16),
                 "does not fit a ReqSpan record");
}

TEST(SpanEncoding, SpansNeverEnterTheRing)
{
    trace::TraceSink sink;
    const std::uint16_t comp = sink.registerComponent("l1_0");
    sink.configureRing(16, static_cast<std::uint32_t>(trace::Flag::All));
    sink.configureSampling(1);
    EXPECT_EQ(sink.ringFlags() &
                  static_cast<std::uint32_t>(trace::Flag::Span),
              0u);
    recordSpan(sink, comp, 5, 1, Stage::ReqNet, 0x40);
    EXPECT_EQ(sink.ringPushes(), 0u);
    EXPECT_EQ(sink.size(), 1u);
    // The Chrome exporter does not write a raw boundary either.
    std::vector<trace::TraceRecord> raw;
    sink.forEach([&](const trace::TraceRecord &r) { raw.push_back(r); });
    std::ostringstream os;
    sink.exportChromeJson(os, raw, 0);
    EXPECT_EQ(os.str().find("req_span"), std::string::npos) << os.str();
}

TEST(SpanEncoding, SamplingOwnsTheSpanMaskBit)
{
    // --trace=all does not turn span records on, and a later mask
    // change does not turn them off.
    trace::TraceSink sink;
    sink.setMask(static_cast<std::uint32_t>(trace::Flag::All));
    EXPECT_FALSE(sink.wants(trace::Flag::Span));
    sink.configureSampling(4);
    EXPECT_TRUE(sink.wants(trace::Flag::Span));
    sink.setMask(0);
    EXPECT_TRUE(sink.wants(trace::Flag::Span));
    sink.configureSampling(0);
    EXPECT_FALSE(sink.wants(trace::Flag::Span));
}

TEST(SpanEncoding, DroppedBoundariesCountAsIncomplete)
{
    // One small-cap sink: the cap cuts the second request after its
    // first boundary.  It must come out incomplete, not as a span.
    {
        trace::TraceSink sink(4);
        sink.configureSampling(1);
        const std::uint16_t l1 = sink.registerComponent("l1_0");
        recordSpan(sink, l1, 10, 1, Stage::ReqNet, 0x40);
        recordSpan(sink, l1, 20, 1, Stage::Done, 0x40);
        recordSpan(sink, l1, 30, 2, Stage::ReqNet, 0x80);
        recordSpan(sink, l1, 31, 3, Stage::ReqNet, 0xc0);
        recordSpan(sink, l1, 40, 2, Stage::Done, 0x80); // dropped
        recordSpan(sink, l1, 41, 3, Stage::Done, 0xc0); // dropped
        EXPECT_EQ(sink.dropped(), 2u);
        EXPECT_EQ(sink.lostFrom(), 40u);
        const SpanSet set = assembleSpans(
            trace::mergeRecords(sink, trace::Stream::Spans),
            sink.lostFrom());
        ASSERT_EQ(set.spans.size(), 1u);
        EXPECT_EQ(set.spans[0].req_id, 1u);
        EXPECT_EQ(set.incomplete, 2u);
    }
    // A record stream whose middle was dropped while both ends
    // survived, joined from two sinks by hand.  Tiling what survived
    // would charge the directory's cycles to ReqNet; the span reaches
    // the first lost tick and is counted incomplete instead.
    {
        trace::TraceSink l1_sink;
        trace::TraceSink dir_sink(2);
        const std::uint16_t l1 = l1_sink.registerComponent("l1_0");
        const std::uint16_t dir = l1_sink.registerComponent("l2dir");
        dir_sink.registerComponent("l1_0");
        dir_sink.registerComponent("l2dir");
        l1_sink.configureSampling(1);
        dir_sink.configureSampling(1);
        recordSpan(l1_sink, l1, 10, 1, Stage::ReqNet, 0x40);
        recordSpan(dir_sink, dir, 12, 1, Stage::DirAccess, 0x40);
        recordSpan(dir_sink, dir, 18, 1, Stage::ReplyNet, 0x40);
        recordSpan(l1_sink, l1, 20, 1, Stage::Done, 0x40);
        recordSpan(l1_sink, l1, 30, 2, Stage::ReqNet, 0x80);
        recordSpan(dir_sink, dir, 32, 2, Stage::DirAccess, 0x80);
        recordSpan(dir_sink, dir, 38, 2, Stage::ReplyNet, 0x80);
        recordSpan(l1_sink, l1, 40, 2, Stage::Done, 0x80);
        EXPECT_EQ(dir_sink.dropped(), 2u);
        std::vector<trace::TraceRecord> records =
            trace::mergeRecords(l1_sink, trace::Stream::Spans);
        const std::vector<trace::TraceRecord> dir_records =
            trace::mergeRecords(dir_sink, trace::Stream::Spans);
        records.insert(records.end(), dir_records.begin(),
                       dir_records.end());
        const SpanSet set = assembleSpans(
            std::move(records),
            std::min(l1_sink.lostFrom(), dir_sink.lostFrom()));
        ASSERT_EQ(set.spans.size(), 1u);
        EXPECT_EQ(set.spans[0].req_id, 1u);
        EXPECT_EQ(set.spans[0].stages.size(), 3u);
        EXPECT_EQ(set.incomplete, 1u);
    }
}

// ---------------------------------------------------------------------
// span assembly from boundary events
// ---------------------------------------------------------------------

namespace
{

trace::TraceRecord
ev(std::uint64_t req, Tick tick, Stage stage, std::uint32_t aux = 0,
   std::uint8_t flags = 0)
{
    return spanRecord(req, tick, stage, 0, 0, aux, flags);
}

} // namespace

TEST(ReqTraceAssembly, BoundaryEventsTileTheLatency)
{
    // A request that goes miss -> directory -> DRAM -> reply -> fill:
    // each stage owns [its tick, next tick), so the stage cycles sum
    // to done - issue with nothing counted twice and nothing dropped.
    std::vector<trace::TraceRecord> events = {
        ev(7, 100, Stage::ReqNet),
        ev(7, 108, Stage::DirQueue),
        ev(7, 110, Stage::DirAccess),
        ev(7, 116, Stage::Dram),
        ev(7, 196, Stage::ReplyNet),
        ev(7, 204, Stage::FillWait),
        ev(7, 205, Stage::Done),
    };
    SpanSet set = assembleSpans(std::move(events));
    ASSERT_EQ(set.spans.size(), 1u);
    EXPECT_EQ(set.incomplete, 0u);
    const Span &s = set.spans[0];
    EXPECT_EQ(s.issue, 100u);
    EXPECT_EQ(s.done, 205u);
    EXPECT_EQ(s.latency(), 105u);
    ASSERT_EQ(s.stages.size(), 6u);
    Tick sum = 0;
    for (const SpanStage &st : s.stages)
        sum += st.cycles;
    EXPECT_EQ(sum, s.latency());
    EXPECT_EQ(s.stages.front().stage, Stage::ReqNet);
    EXPECT_EQ(s.stages.front().cycles, 8u);
    EXPECT_EQ(s.stages.back().stage, Stage::FillWait);
    EXPECT_EQ(s.stages.back().cycles, 1u);
}

TEST(ReqTraceAssembly, RetryLoopsStayReconciled)
{
    // An invalidation racing the fill forces a re-request: the span
    // grows extra ReqNet.. segments but keeps tiling [issue, done].
    std::vector<trace::TraceRecord> events = {
        ev(9, 50, Stage::ReqNet),
        ev(9, 60, Stage::DirAccess),
        ev(9, 70, Stage::ReplyNet),
        ev(9, 80, Stage::FillWait),
        ev(9, 81, Stage::ReqNet, 0, span_flag_retry),
        ev(9, 95, Stage::DirAccess),
        ev(9, 105, Stage::ReplyNet),
        ev(9, 115, Stage::FillWait),
        ev(9, 116, Stage::Done),
    };
    SpanSet set = assembleSpans(std::move(events));
    ASSERT_EQ(set.spans.size(), 1u);
    const Span &s = set.spans[0];
    EXPECT_EQ(s.retries, 1u);
    Tick sum = 0;
    for (const SpanStage &st : s.stages)
        sum += st.cycles;
    EXPECT_EQ(sum, s.latency());
    EXPECT_EQ(s.latency(), 66u);
}

TEST(ReqTraceAssembly, WaiterEventsBecomeSeparateSpans)
{
    // Two coalesced waiters queue behind a traced primary: each gets
    // its own single-stage L1Queue span ending at the primary's fill.
    std::vector<trace::TraceRecord> events = {
        ev(3, 10, Stage::ReqNet),
        ev(3, 12, Stage::L1Queue, 111, span_flag_waiter),
        ev(3, 20, Stage::DirAccess),
        ev(3, 25, Stage::L1Queue, 222, span_flag_waiter),
        ev(3, 40, Stage::ReplyNet),
        ev(3, 48, Stage::FillWait),
        ev(3, 50, Stage::Done, 2),
    };
    SpanSet set = assembleSpans(std::move(events));
    ASSERT_EQ(set.spans.size(), 3u);
    const Span &primary = set.spans[0];
    EXPECT_FALSE(primary.waiter);
    EXPECT_EQ(primary.waiters, 2u);
    std::size_t waiters = 0;
    for (const Span &s : set.spans) {
        if (!s.waiter)
            continue;
        ++waiters;
        ASSERT_EQ(s.stages.size(), 1u);
        EXPECT_EQ(s.stages[0].stage, Stage::L1Queue);
        EXPECT_EQ(s.done, primary.done);
        EXPECT_EQ(s.stages[0].cycles, s.latency());
    }
    EXPECT_EQ(waiters, 2u);
}

TEST(ReqTraceAssembly, UnfinishedRequestsAreCountedNotInvented)
{
    // A request still in flight at the end of the run has no Done
    // event: it must not fabricate a span.
    std::vector<trace::TraceRecord> events = {
        ev(5, 10, Stage::ReqNet),
        ev(5, 20, Stage::DirAccess),
    };
    SpanSet set = assembleSpans(std::move(events));
    EXPECT_TRUE(set.spans.empty());
    EXPECT_EQ(set.incomplete, 1u);
}

TEST(ReqTraceTopK, OrderedByLatencyThenSequence)
{
    SpanSet set;
    auto mk = [](std::uint64_t req, Tick issue, Tick done, bool waiter) {
        Span s;
        s.req_id = req;
        s.issue = issue;
        s.done = done;
        s.waiter = waiter;
        return s;
    };
    const std::uint64_t c0 = 1ULL << 40; // core 0, seq starts at 1
    set.spans.push_back(mk(c0 + 1, 0, 50, false));
    set.spans.push_back(mk(c0 + 2, 0, 90, false));
    set.spans.push_back(mk(c0 + 3, 10, 100, false)); // ties req 2
    set.spans.push_back(mk(c0 + 4, 0, 500, true));   // waiter: excluded
    set.spans.push_back(mk(c0 + 5, 0, 200, false));

    const auto top = topK(set, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0]->req_id, c0 + 5); // 200 cycles
    EXPECT_EQ(top[1]->req_id, c0 + 2); // 90, earlier seq wins the tie
    EXPECT_EQ(top[2]->req_id, c0 + 3); // 90
    // K larger than the population returns every primary.
    EXPECT_EQ(topK(set, 100).size(), 4u);
}

// ---------------------------------------------------------------------
// whole-system runs
// ---------------------------------------------------------------------

namespace
{

/** Every tail-observability artifact of one run. */
struct TailRun
{
    bool completed = false;
    std::string stats;    //!< writeStatsJson
    std::string report;   //!< writeTailReport
    std::string outliers; //!< writeOutliers
    std::string trace;    //!< exportTrace
};

harness::SystemConfig
tailConfig(std::uint64_t period)
{
    harness::SystemConfig cfg;
    cfg.num_cores = 8;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg.withSpeculation();
    if (period)
        cfg.withTailTrace(period, 5);
    return cfg;
}

TailRun
runTail(std::uint64_t period)
{
    const harness::SystemConfig cfg = tailConfig(period);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    TailRun r;
    r.completed = sys.run();
    {
        std::ostringstream os;
        sys.writeStatsJson(os);
        r.stats = os.str();
    }
    {
        std::ostringstream os;
        sys.writeTailReport(os);
        r.report = os.str();
    }
    {
        std::ostringstream os;
        sys.writeOutliers(os);
        r.outliers = os.str();
    }
    {
        std::ostringstream os;
        sys.exportTrace(os);
        r.trace = os.str();
    }
    return r;
}

} // namespace

TEST(TailTrace, EveryMissReconcilesExactly)
{
    // period 1: every miss traced; each span's stage cycles must sum
    // to its end-to-end latency, and the aggregate attribution must
    // reconcile to the cycle.
    const harness::SystemConfig cfg = tailConfig(1);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const SpanSet &set = sys.tailSpans();
    ASSERT_GT(set.spans.size(), 0u);
    std::uint64_t e2e = 0;
    for (const Span &s : set.spans) {
        Tick sum = 0;
        for (const SpanStage &st : s.stages)
            sum += st.cycles;
        EXPECT_EQ(sum, s.latency()) << "req " << s.req_id;
        e2e += s.latency();
    }
    const TailAttribution &at = sys.tailAttribution();
    std::uint64_t stage_cycles = 0;
    for (const StageRow &row : at.rows)
        stage_cycles += row.cycles;
    EXPECT_EQ(stage_cycles, at.e2e_cycles);
    EXPECT_EQ(at.e2e_cycles, e2e);
    EXPECT_EQ(at.spans, set.spans.size());

    std::ostringstream os;
    sys.writeTailReport(os);
    EXPECT_NE(os.str().find("(reconciled exactly)"), std::string::npos)
        << os.str();
    EXPECT_EQ(os.str().find("MISMATCH"), std::string::npos) << os.str();
}

TEST(TailTrace, ByteIdenticalInsideParallelSweep)
{
    // Span tracing composes with sweep-level host parallelism: the
    // same tasks under --jobs=1 and --jobs=4 produce the same bytes,
    // both with every miss traced and with a sampled subset (where the
    // same requests must be picked whichever worker runs the task).
    auto make_tasks = [] {
        std::vector<std::function<std::string()>> tasks;
        for (std::uint64_t period : {1u, 2u, 4u, 8u}) {
            tasks.push_back([period]() -> std::string {
                const TailRun r = runTail(period);
                return r.stats + r.report + r.outliers + r.trace;
            });
        }
        return tasks;
    };
    harness::SweepRunner serial(1);
    harness::SweepRunner parallel(4);
    const auto seq = serial.map(make_tasks());
    const auto par = parallel.map(make_tasks());
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_EQ(seq[i], par[i]) << "task " << i;
    EXPECT_NE(seq[0], seq[3]) << "sampling period had no effect";
}

TEST(TailTrace, TopKDossiersDeterministicAndOrdered)
{
    const TailRun a = runTail(1);
    const TailRun b = runTail(1);
    ASSERT_TRUE(a.completed);
    EXPECT_EQ(a.outliers, b.outliers);

    // The dossier list respects K and is sorted by latency desc.
    std::vector<std::uint64_t> latencies;
    std::istringstream is(a.outliers);
    std::string line;
    while (std::getline(is, line)) {
        const auto pos = line.find("\"latency\": ");
        if (pos != std::string::npos)
            latencies.push_back(std::stoull(line.substr(pos + 11)));
    }
    ASSERT_FALSE(latencies.empty());
    EXPECT_LE(latencies.size(), 5u); // tailConfig passes outliers=5
    EXPECT_TRUE(std::is_sorted(latencies.rbegin(), latencies.rend()))
        << a.outliers;
    // Dossiers carry a symbolized PC and the owning directory bank.
    EXPECT_NE(a.outliers.find("\"pc_sym\""), std::string::npos);
    EXPECT_NE(a.outliers.find("\"dir_bank\""), std::string::npos);
}

TEST(TailTrace, PerfettoExportCarriesSpanStages)
{
    const TailRun r = runTail(1);
    ASSERT_TRUE(r.completed);
    // Stage slices render under the recording component's track with
    // the stage name, chained by "span"-category flow arrows.
    EXPECT_NE(r.trace.find("\"req_net\""), std::string::npos);
    EXPECT_NE(r.trace.find("\"cat\": \"span\""), std::string::npos);
}

TEST(TailTrace, TraceOutCarriesNoRawSpanRecords)
{
    // Every --trace kind on, every miss sampled: the sink holds the
    // raw ReqSpan boundaries, yet the exported document shows only the
    // assembled ReqStage slices.
    harness::SystemConfig cfg = tailConfig(1);
    cfg.trace_mask = static_cast<std::uint32_t>(trace::Flag::All);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    std::uint64_t raw = 0;
    sys.tracer().forEach([&](const trace::TraceRecord &r) {
        raw += r.kind ==
               static_cast<std::uint16_t>(trace::EventKind::ReqSpan);
    });
    EXPECT_GT(raw, 0u);
    std::ostringstream os;
    sys.exportTrace(os);
    EXPECT_EQ(os.str().find("req_span"), std::string::npos);
    EXPECT_NE(os.str().find("\"req_net\""), std::string::npos);
}

TEST(TailTrace, BlackboxIdenticalWithSpansOnAndOff)
{
    // Span boundaries never enter the flight-recorder ring, so the
    // dump and the tail are the same bytes whether sampling is on.
    auto dumps = [](std::uint64_t period) {
        const harness::SystemConfig cfg = tailConfig(period);
        workload::SpinlockCrit wl;
        isa::Program prog = wl.build(cfg.num_cores);
        harness::System sys(cfg, prog);
        EXPECT_TRUE(sys.run());
        std::ostringstream json, tail;
        sys.writeBlackbox(json);
        sys.writeBlackboxTail(tail);
        return std::make_pair(json.str(), tail.str());
    };
    const auto off = dumps(0);
    const auto on = dumps(1);
    EXPECT_NE(off.first.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
}

// ---------------------------------------------------------------------
// off mode: zero output bytes
// ---------------------------------------------------------------------

TEST(TailTrace, OffModeContributesZeroOutputBytes)
{
    const TailRun off = runTail(0);
    ASSERT_TRUE(off.completed);
    EXPECT_EQ(off.stats.find("tailtrace"), std::string::npos);
    EXPECT_EQ(off.trace.find("req_stage"), std::string::npos);
    EXPECT_EQ(off.trace.find("\"cat\": \"span\""), std::string::npos);
    EXPECT_NE(off.report.find("span tracing was off"),
              std::string::npos);
    // An off-mode dossier request yields an empty outlier list, not an
    // error -- and nothing else.
    EXPECT_NE(off.outliers.find("\"outliers\": [\n  ]"),
              std::string::npos)
        << off.outliers;
}

TEST(TailTrace, StatGroupMatchesAssembledSpans)
{
    const harness::SystemConfig cfg = tailConfig(1);
    workload::SpinlockCrit wl;
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());

    const auto *group = sys.stats().findGroup("tailtrace");
    ASSERT_NE(group, nullptr);
    std::uint64_t primaries = 0, waiters = 0;
    for (const Span &s : sys.tailSpans().spans)
        ++(s.waiter ? waiters : primaries);
    EXPECT_EQ(group->scalarCount("sampled_spans"), primaries);
    EXPECT_EQ(group->scalarCount("waiter_spans"), waiters);
    EXPECT_GT(primaries, 0u);
    const auto *e2e = group->findDistribution("e2e_latency");
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->samples(), sys.tailSpans().spans.size());
}
