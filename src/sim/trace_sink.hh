/**
 * @file
 * Structured binary event tracing with a Chrome trace-event exporter.
 *
 * FL_TRACE prints formatted text -- fine for eyeballing a short run,
 * useless for timelines.  The TraceSink instead records *typed* binary
 * events (tick, component id, event kind, two payload words) into
 * chunked in-memory buffers, and converts them on demand to Chrome
 * trace-event / Perfetto JSON (`--trace-out=run.json`, open in
 * `ui.perfetto.dev`): per-core duration events for speculation epochs
 * and stall intervals, instant events for rollbacks (with cause),
 * counter events for instruction commit, and cross-component flow
 * events following one memory request from L1 miss through the
 * directory back to the fill.
 *
 * Concurrency / cost model:
 *  - One sink per sim::SimContext -- i.e. per shard of a simulated
 *    system -- and a shard runs on exactly one host thread, so the hot
 *    path is a plain bounds-checked append: no locks, no atomics, safe
 *    under `SweepRunner --jobs=N` and under sharded (`--shards=N`)
 *    execution because sinks share nothing.  Sharded Systems merge the
 *    per-shard streams deterministically at dump time (sim/blackbox.hh,
 *    harness::System::exportTrace).
 *  - Disabled tracing costs one inline mask test (the FL_TEVENT macro
 *    mirrors FL_TRACE's guard); nothing is evaluated or stored.
 *  - Recording is capped (default 4M events, ~128 MiB) so a runaway
 *    run degrades to counting drops instead of eating the host.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/trace.hh"
#include "base/types.hh"

namespace fenceless::trace
{

/**
 * Every kind of structured event the simulator records.  The exporter
 * knows each kind's Chrome phase (duration / instant / counter / flow)
 * and how to decode its payload words.
 */
enum class EventKind : std::uint16_t
{
    // Core timeline (Flag::Core / Flag::Stall)
    CoreCommit,   //!< counter: a0 = instructions retired so far
    CoreStall,    //!< duration: a0 = begin tick, aux = StallReason id
    // Speculation episodes (Flag::Spec)
    SpecEpoch,    //!< duration: a0 = begin tick, a1 = insts, aux = outcome
    SpecRollback, //!< instant: a1 = discarded insts, aux = cause id
    // Store buffer (Flag::SB)
    SbOccupancy,  //!< counter: a0 = entries buffered
    // Request lifetime (Flag::Req): a0 = request id, flows across
    // components; the exporter draws arrows between the phase slices.
    ReqIssue,     //!< L1 miss issued to the directory; a1 = block addr
    ReqDirIngress,//!< request arrived at the directory; a1 = msg type
    ReqDirDone,   //!< directory transaction completed; a1 = dram reads
    ReqFill,      //!< fill installed in the L1; a1 = block addr
    // Network (Flag::Net)
    NetHop,       //!< instant on the network track: a0 = req id,
                  //!< a1 = latency, aux = msg type
    // Host shard telemetry (Flag::Host): wall-clock phases of the
    // parallel driver, drawn on per-shard host tracks alongside the
    // guest timeline (ticks are the shared x-axis).
    HostPhase,    //!< duration: tick = quantum start, a0 = quantum end,
                  //!< a1 = phase ns, aux = HostPhaseKind
    HostCoord,    //!< instant: coordinator step at a quantum boundary;
                  //!< a1 = step ns, aux = boundary cause id
    // Sampled request spans (Flag::Req).  Synthesized at export time
    // from the reqtrace span sinks, never recorded live: one slice per
    // tiled stage, chained with flow arrows under the guest tracks.
    ReqStage,     //!< duration: a0 = req id, a1 = cycles, aux = stage
    NumKinds,
};

const char *eventKindName(EventKind k);

/**
 * The Flag that gates recording of @p k (how FL_TEVENT filters).
 * constexpr so the per-site guard folds to a compile-time constant:
 * every FL_TEVENT passes a literal kind, and with tracing off the whole
 * guard reduces to one inline mask test against a constant bit.
 */
constexpr Flag
eventKindFlag(EventKind k)
{
    switch (k) {
      case EventKind::CoreCommit: return Flag::Core;
      case EventKind::CoreStall: return Flag::Stall;
      case EventKind::SpecEpoch:
      case EventKind::SpecRollback: return Flag::Spec;
      case EventKind::SbOccupancy: return Flag::SB;
      case EventKind::ReqIssue:
      case EventKind::ReqDirIngress:
      case EventKind::ReqDirDone:
      case EventKind::ReqFill: return Flag::Req;
      case EventKind::NetHop: return Flag::Net;
      case EventKind::HostPhase:
      case EventKind::HostCoord: return Flag::Host;
      case EventKind::ReqStage: return Flag::Req;
      case EventKind::NumKinds: break;
    }
    return Flag::All;
}

/** One recorded event.  32 bytes, trivially copyable. */
struct TraceRecord
{
    Tick tick;
    std::uint64_t a0;
    std::uint64_t a1;
    std::uint16_t comp;
    std::uint16_t kind;
    std::uint32_t aux;
};

static_assert(sizeof(TraceRecord) == 32, "keep trace records compact");

/**
 * One flight-recorder ring slot: the record plus a global push sequence
 * number, so the per-component rings merge into one totally ordered
 * stream at dump time without any per-event timestamp comparison.
 */
struct RingEntry
{
    TraceRecord rec;
    std::uint64_t seq = 0; //!< 0 = slot never written
};

class TraceSink
{
  public:
    static constexpr std::size_t chunk_records = 1u << 16;
    static constexpr std::size_t default_cap = 4u << 20;

    explicit TraceSink(std::size_t max_records = default_cap)
        : max_records_(max_records)
    {}

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    // --- configuration ---------------------------------------------------

    /** Enable recording for the given Flag mask (0 = off, the default). */
    void setMask(std::uint32_t mask) { mask_ = mask; }
    std::uint32_t mask() const { return mask_; }

    /** @return true if any structured tracing is enabled. */
    bool enabled() const { return mask_ != 0; }

    /**
     * Configure the flight-recorder ring: the last @p records_per_comp
     * events (flag-filtered by @p flags) of every component are kept in
     * a fixed ring and survive until dumped -- the incident evidence
     * for stall dossiers and panic dumps (see sim/blackbox.hh).  The
     * capacity is rounded up to a power of two; 0 disables the ring.
     * Safe to call before or after components register.
     */
    void configureRing(std::size_t records_per_comp, std::uint32_t flags);

    std::size_t ringCapacity() const { return ring_capacity_; }
    std::uint32_t ringFlags() const { return ring_flags_; }

    /** Total events ever pushed into the ring (across components). */
    std::uint64_t ringPushes() const { return ring_seq_; }

    /** @return true if events gated by @p f should be recorded. */
    bool
    wants(Flag f) const
    {
        return ((mask_ | ring_flags_) &
                static_cast<std::uint32_t>(f)) != 0;
    }

    // --- component / request identity ------------------------------------

    /**
     * Register a component; the id names its timeline track.
     * Idempotent: re-registering an existing name returns its id, so a
     * sharded System can pre-register one global component list into
     * every shard sink and ids stay identical across sinks.
     */
    std::uint16_t registerComponent(const std::string &name);

    /**
     * Copy @p other's aux-name tables for any kind this sink has none
     * for.  The export/meta sink of a sharded run adopts the tables
     * components registered into their own shard's sink; tables for
     * the same kind are identical across components, so first-wins is
     * exact.
     */
    void adoptAuxNames(const TraceSink &other);

    const std::vector<std::string> &components() const
    {
        return components_;
    }

    /**
     * Map integer aux payloads of @p kind to printable names (e.g.
     * StallReason ids); the exporter uses them for event args.  The
     * owning component registers its table once at construction.
     */
    void setAuxNames(EventKind kind, std::vector<std::string> names);

    /** @return the registered name for (kind, aux), or "" if none. */
    const std::string &auxName(EventKind kind, std::uint32_t aux) const;

    // --- recording (hot path) --------------------------------------------

    /**
     * Append one event.  Call through FL_TEVENT, not directly.  The
     * event goes to the flight-recorder ring, the full chunked trace,
     * or both, depending on which mask wants its kind: wants() gates on
     * the union, so this re-checks each destination.
     */
    void
    record(std::uint16_t comp, EventKind kind, Tick tick,
           std::uint64_t a0 = 0, std::uint64_t a1 = 0,
           std::uint32_t aux = 0)
    {
        const auto bit =
            static_cast<std::uint32_t>(eventKindFlag(kind));
        if (ring_flags_ & bit) {
            // Ring write: one indexed store and two counter bumps.
            // This is the always-on flight-recorder hot path; keep it
            // branch-light (capacity is a power of two).
            std::uint64_t &head = ring_heads_[comp];
            ring_[comp * ring_capacity_ +
                  (head & (ring_capacity_ - 1))] =
                RingEntry{TraceRecord{tick, a0, a1, comp,
                                      static_cast<std::uint16_t>(kind),
                                      aux},
                          ++ring_seq_};
            ++head;
        }
        // The full chunked trace takes the kinds the mask asks for.
        // An entirely unconfigured sink (no mask, no ring) keeps the
        // legacy behaviour of storing every direct record() call:
        // wants() is false for everything then, so FL_TEVENT never
        // gets here and only explicit callers (tests, tools) do.
        if (!(mask_ & bit) && (mask_ | ring_flags_) != 0)
            return;
        if (size_ >= max_records_) {
            ++dropped_;
            return;
        }
        if (chunks_.empty() || chunks_.back().size() == chunk_records)
            addChunk();
        chunks_.back().push_back(
            TraceRecord{tick, a0, a1, comp,
                        static_cast<std::uint16_t>(kind), aux});
        ++size_;
    }

    // --- inspection / export ---------------------------------------------

    std::size_t size() const { return size_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Visit every record in recording order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &chunk : chunks_)
            for (const TraceRecord &r : chunk)
                fn(r);
    }

    /**
     * Visit component @p comp's ring entries, oldest to newest.  Only
     * written slots are visited, so a short run yields fewer than
     * ringCapacity() entries.
     */
    template <typename Fn>
    void
    forEachRingEntry(std::uint16_t comp, Fn fn) const
    {
        if (ring_capacity_ == 0 || comp >= ring_heads_.size())
            return;
        const std::uint64_t head = ring_heads_[comp];
        const std::uint64_t count = std::min<std::uint64_t>(
            head, static_cast<std::uint64_t>(ring_capacity_));
        const std::size_t base = comp * ring_capacity_;
        for (std::uint64_t i = head - count; i < head; ++i)
            fn(ring_[base + (i & (ring_capacity_ - 1))]);
    }

    /** Discard all recorded events (identity registrations survive). */
    void clear();

    /**
     * Write everything as a Chrome trace-event JSON object
     * (`{"traceEvents": [...]}`), loadable by chrome://tracing and
     * ui.perfetto.dev.  Ticks are exported as microseconds 1:1.  A
     * non-empty @p provenance_json (see base/provenance.hh) is embedded
     * as a top-level "provenance" key.
     */
    void exportChromeJson(std::ostream &os,
                          const std::string &provenance_json = "") const;

    /**
     * Export an arbitrary record sequence -- e.g. the merged flight-
     * recorder rings -- in the same Chrome trace-event format, using
     * this sink's component and aux-name registrations for identity.
     */
    void
    exportChromeJsonFor(std::ostream &os,
                        const std::vector<TraceRecord> &records,
                        std::uint64_t dropped,
                        const std::string &provenance_json) const;

  private:
    void addChunk();

    std::uint32_t mask_ = 0;
    std::size_t max_records_;
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
    std::vector<std::vector<TraceRecord>> chunks_;
    std::vector<std::string> components_;
    std::vector<std::vector<std::string>> aux_names_;

    // Flight-recorder ring: component-major fixed storage, one write
    // head per component, one global push sequence shared by all.
    std::uint32_t ring_flags_ = 0;
    std::size_t ring_capacity_ = 0; //!< slots per component (power of 2)
    std::uint64_t ring_seq_ = 0;
    std::vector<RingEntry> ring_;
    std::vector<std::uint64_t> ring_heads_;
};

} // namespace fenceless::trace

/**
 * Record a structured trace event.  @p obj must provide tracer(),
 * traceId() and curTick() (every SimObject does).  The payload
 * arguments are not evaluated when the gating flag is disabled.
 */
#define FL_TEVENT(obj, kind, ...)                                      \
    do {                                                               \
        if ((obj).tracer().wants(                                      \
                fenceless::trace::eventKindFlag(kind))) {              \
            (obj).tracer().record((obj).traceId(), kind,               \
                                  (obj).curTick(), ##__VA_ARGS__);     \
        }                                                              \
    } while (0)
