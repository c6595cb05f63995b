/**
 * @file
 * Per-request span tracing: the tail-latency observability layer.
 *
 * Aggregate latency distributions (PR 2) and percentile sketches
 * (PR 7) can say *that* the p99.9 is bad, but not *why this request*
 * was slow.  This layer records, for a sampled subset of misses, a
 * timestamp at every stage boundary the request crosses on its way
 * through the memory system:
 *
 *     ReqNet   the GetS/GetM leaves the L1 toward the directory bank
 *     DirQueue queued at the bank behind an active same-block txn
 *     DirAccess bank accepted the txn (tag/directory access latency)
 *     Dram     L2 miss: DRAM channel queue + access
 *     DirBlocked waiting behind an L2 victim recall
 *     DirFwd   waiting for the current owner (FwdGetS/FwdGetM round trip)
 *     DirInv   waiting for sharer invalidation acks
 *     ReplyNet the Data* reply is in flight back to the L1
 *     FillWait data arrived at the L1 but cannot install yet
 *     Done     installed; the span ends
 *
 * Stage *durations* are never recorded -- only boundary events.  Each
 * stage's contribution is the interval to the next boundary, so the
 * per-stage cycles of a span tile the end-to-end latency exactly (to
 * the cycle), including fill-retry loops where an Inv/Fwd yanks a
 * buffered fill and the request re-enters ReqNet with the same id.
 *
 * Coalesced accesses that queue behind an existing MSHR are recorded
 * as flagged L1Queue events.  They are not part of the miss's tiled
 * path; span assembly turns each one into its own single-stage
 * "waiter" span [queue tick, fill tick], which is exactly the MSHR
 * wait that request experienced.
 *
 * Sampling must be byte-identical across --jobs values, so it is a
 * pure function of the request id: ids are minted per L1 as
 * (node+1)<<40 | local-miss-sequence (see L1Cache::handleMiss), and a
 * request is sampled iff a splitmix64 hash of its id falls in the
 * configured 1-in-N slice (trace::TraceSink::sampled).  Every component -- L1, directory bank,
 * network -- can re-derive the decision statelessly from msg.req_id.
 *
 * Recording: a boundary is one EventKind::ReqSpan record in the owning
 * SimContext's TraceSink (FL_SPAN below; spanRecord() is the
 * encoding), under that sink's ownership and record cap.  Span
 * assembly runs once, after the run, over
 * trace::mergeRecords(Stream::Spans) stable-sorted by (req_id, tick):
 * any two same-request events at the same tick are recorded by the
 * same component (cross-component transitions ride the network, whose
 * minimum delay is one cycle), so the order within such a group is
 * recording order.  A boundary the cap dropped makes its span
 * incomplete, never a made-up one.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "sim/trace_sink.hh"

namespace fenceless::reqtrace
{

/** The stages a request span can pass through (pipeline order). */
enum class Stage : std::uint8_t
{
    L1Queue,    //!< coalesced access waiting on an existing MSHR
    ReqNet,     //!< GetS/GetM in flight toward the directory bank
    DirQueue,   //!< queued at the bank behind an active txn
    DirAccess,  //!< directory/tag access latency
    Dram,       //!< DRAM channel queue + access (L2 miss)
    DirBlocked, //!< waiting behind an L2 victim recall
    DirFwd,     //!< owner forward round trip (FwdGetS/FwdGetM)
    DirInv,     //!< sharer invalidation fan-out
    ReplyNet,   //!< Data* reply in flight back to the L1
    FillWait,   //!< fill buffered at the L1, not installable yet
    Done,       //!< installed (terminates the span)
    NumStages,
};

constexpr std::size_t num_stages =
    static_cast<std::size_t>(Stage::NumStages);

/** Short stable name ("req_net", "dir_queue", ...). */
const char *stageName(Stage s);

/** Event flags. */
constexpr std::uint8_t span_flag_retry = 1;  //!< re-request after a yank
constexpr std::uint8_t span_flag_waiter = 2; //!< coalesced MSHR waiter

/*
 * The ReqSpan encoding.  One boundary fills one 32-byte TraceRecord:
 *
 *     tick  the boundary tick
 *     a0    req_id
 *     a1    block (bits 0..55) | stage (56..59) | flags (60..63)
 *     comp  the recording component's trace id (so exports can target
 *           the existing per-component tracks)
 *     aux   stage-specific detail (issuing PC for ReqNet and waiters,
 *           queue depth for DirQueue, owner for DirFwd, ack fan-out
 *           for DirInv, waiter count for Done)
 */
constexpr unsigned span_block_bits = 56;
constexpr unsigned span_stage_bits = 4;
static_assert(num_stages <= (1u << span_stage_bits),
              "every stage must fit the ReqSpan stage field");

/**
 * Encode one stage boundary.  Panics rather than truncate when the
 * block or the flags do not fit their fields.
 */
inline trace::TraceRecord
spanRecord(std::uint64_t req_id, Tick tick, Stage stage,
           std::uint16_t node, Addr block, std::uint32_t aux = 0,
           std::uint8_t flags = 0)
{
    flAssert((block >> span_block_bits) == 0 &&
                 (flags >> (64 - span_block_bits - span_stage_bits)) == 0,
             "span boundary does not fit a ReqSpan record: block 0x",
             std::hex, block, " flags 0x", unsigned{flags});
    const std::uint64_t a1 =
        block |
        static_cast<std::uint64_t>(stage) << span_block_bits |
        static_cast<std::uint64_t>(flags)
            << (span_block_bits + span_stage_bits);
    return trace::TraceRecord{
        tick, req_id, a1, node,
        static_cast<std::uint16_t>(trace::EventKind::ReqSpan), aux};
}

inline Addr
spanBlock(const trace::TraceRecord &r)
{
    return r.a1 & ((1ULL << span_block_bits) - 1);
}

inline Stage
spanStage(const trace::TraceRecord &r)
{
    return static_cast<Stage>((r.a1 >> span_block_bits) &
                              ((1u << span_stage_bits) - 1));
}

inline std::uint8_t
spanFlags(const trace::TraceRecord &r)
{
    return static_cast<std::uint8_t>(
        r.a1 >> (span_block_bits + span_stage_bits));
}

/** Encode one boundary and append it to @p sink. */
inline void
recordSpan(trace::TraceSink &sink, std::uint16_t node, Tick tick,
           std::uint64_t req_id, Stage stage, Addr block,
           std::uint32_t aux = 0, std::uint8_t flags = 0)
{
    const trace::TraceRecord r =
        spanRecord(req_id, tick, stage, node, block, aux, flags);
    sink.record(r.comp, trace::EventKind::ReqSpan, r.tick, r.a0, r.a1,
                r.aux);
}

// ---------------------------------------------------------------------
// post-run span assembly (main thread)
// ---------------------------------------------------------------------

/** One tiled stage of an assembled span. */
struct SpanStage
{
    Stage stage;
    Tick at;            //!< boundary tick (stage entry)
    Tick cycles;        //!< interval to the next boundary
    std::uint16_t node; //!< recording component's trace id
    std::uint32_t aux;
    std::uint8_t flags;
};

/** One assembled request span. */
struct Span
{
    std::uint64_t req_id = 0;
    Tick issue = 0;
    Tick done = 0;
    Addr block = 0;
    std::uint32_t pc = 0;       //!< issuing PC (ReqNet aux)
    std::uint32_t waiters = 0;  //!< coalesced accesses served by the fill
    std::uint32_t retries = 0;  //!< fill yanks (Inv/Fwd re-requests)
    bool waiter = false;        //!< single-stage coalesced-waiter span
    std::vector<SpanStage> stages;

    Tick latency() const { return done - issue; }

    /** Issuing L1's node id (minted into the id's high bits). */
    std::uint32_t
    core() const
    {
        return static_cast<std::uint32_t>(req_id >> 40) - 1;
    }

    /** Per-L1 miss sequence number (the id's low bits). */
    std::uint64_t
    seq() const
    {
        return req_id & ((1ULL << 40) - 1);
    }

    /** The stage owning the most cycles (ties: earliest stage). */
    Stage dominantStage() const;
};

/** Every complete span of a run, in canonical order. */
struct SpanSet
{
    std::uint64_t incomplete = 0; //!< cut off by run end or record cap
    std::vector<Span> spans;      //!< (req_id asc, primary before waiters)
};

/**
 * Assemble ReqSpan records (in the canonical mergeRecords order) into
 * complete spans; see the file comment for the ordering argument.  A
 * span that reaches @p lost_from -- the first tick the sink dropped a
 * record at -- may be missing boundaries and is counted as incomplete.
 */
SpanSet assembleSpans(std::vector<trace::TraceRecord> records,
                      Tick lost_from = max_tick);

/** One row of the stage-attribution table. */
struct StageRow
{
    Stage stage;
    std::uint64_t spans = 0;  //!< spans in which the stage appears
    std::uint64_t cycles = 0; //!< total cycles attributed to the stage
    Tick p50 = 0, p95 = 0, p99 = 0, p999 = 0; //!< per-span contribution
    std::uint64_t tail_owned = 0; //!< above-p99 spans this stage dominates
};

/** The critical-path stage attribution of a run's sampled spans. */
struct TailAttribution
{
    std::uint64_t spans = 0;      //!< complete spans folded in
    std::uint64_t tail_spans = 0; //!< spans with latency > e2e p99
    Tick e2e_p50 = 0, e2e_p95 = 0, e2e_p99 = 0, e2e_p999 = 0;
    std::uint64_t e2e_cycles = 0; //!< sum of end-to-end latencies
    std::vector<StageRow> rows;   //!< stage order; stages with spans > 0

    /** Rows ranked by tail ownership (desc), ties by stage order. */
    std::vector<const StageRow *> tailRanking() const;
};

/**
 * Fold @p set into per-stage contribution percentiles and the tail-
 * ownership ranking.  Exact nearest-rank percentiles over the sampled
 * spans (all of them are in memory; no sketch estimation error here).
 */
TailAttribution attributeStages(const SpanSet &set);

/**
 * The top-@p k slowest primary spans, ordered by (latency desc,
 * req_id asc) -- the deterministic outlier-dossier selection.
 */
std::vector<const Span *> topK(const SpanSet &set, std::size_t k);

/** Exact nearest-rank percentile of a sorted sample vector. */
Tick nearestRank(const std::vector<Tick> &sorted, double q);

} // namespace fenceless::reqtrace

/**
 * Record a request-span boundary of @p req_id in @p obj's trace sink
 * (@p obj provides tracer(), traceId() and curTick(), as for
 * FL_TEVENT).  The arguments after @p req_id are not evaluated
 * unless the request is sampled.
 */
#define FL_SPAN(obj, req_id, stage, block, ...)                        \
    do {                                                               \
        if ((obj).tracer().sampled(req_id)) {                          \
            fenceless::reqtrace::recordSpan(                           \
                (obj).tracer(), (obj).traceId(), (obj).curTick(),      \
                req_id, stage, block, ##__VA_ARGS__);                  \
        }                                                              \
    } while (0)
