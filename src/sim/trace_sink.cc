#include "sim/trace_sink.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>

#include "base/logging.hh"

namespace fenceless::trace
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::CoreCommit: return "instret";
      case EventKind::CoreStall: return "stall";
      case EventKind::SpecEpoch: return "spec_epoch";
      case EventKind::SpecRollback: return "rollback";
      case EventKind::SbOccupancy: return "sb_occupancy";
      case EventKind::ReqIssue: return "req_issue";
      case EventKind::ReqDirIngress: return "dir_ingress";
      case EventKind::ReqDirDone: return "dir_done";
      case EventKind::ReqFill: return "l1_fill";
      case EventKind::NetHop: return "net_hop";
      case EventKind::HostPhase: return "host_phase";
      case EventKind::HostCoord: return "host_coord";
      case EventKind::ReqStage: return "req_stage";
      case EventKind::ReqSpan: return "req_span";
      case EventKind::NumKinds: break;
    }
    return "?";
}

std::uint16_t
TraceSink::registerComponent(const std::string &name)
{
    // Idempotent by name: a sharded System pre-registers the global
    // component list into every shard's sink (in one fixed order), so
    // the later registration by the component itself must return the
    // same -- now globally meaningful -- id instead of a duplicate
    // track.
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i] == name)
            return static_cast<std::uint16_t>(i);
    }
    components_.push_back(name);
    ring_heads_.push_back(0);
    if (ring_capacity_ > 0)
        ring_.resize(components_.size() * ring_capacity_);
    return static_cast<std::uint16_t>(components_.size() - 1);
}

void
TraceSink::adoptAuxNames(const TraceSink &other)
{
    for (std::size_t k = 0; k < other.aux_names_.size(); ++k) {
        if (other.aux_names_[k].empty())
            continue;
        if (aux_names_.size() <= k)
            aux_names_.resize(k + 1);
        if (aux_names_[k].empty())
            aux_names_[k] = other.aux_names_[k];
    }
}

void
TraceSink::configureRing(std::size_t records_per_comp,
                         std::uint32_t flags)
{
    flags &= ~span_bit; // span boundaries never enter the ring
    if (records_per_comp == 0 || flags == 0) {
        ring_flags_ = 0;
        ring_capacity_ = 0;
        ring_.clear();
        return;
    }
    // The bound keeps the round-up below from overflowing.
    flAssert(records_per_comp <= max_ring_records,
             "flight-recorder ring of ", records_per_comp,
             " records per component exceeds ", max_ring_records);
    ring_capacity_ = std::bit_ceil(records_per_comp);
    ring_flags_ = flags;
    ring_.assign(components_.size() * ring_capacity_, RingEntry{});
    std::fill(ring_heads_.begin(), ring_heads_.end(), 0);
    ring_seq_ = 0;
}

void
TraceSink::setAuxNames(EventKind kind, std::vector<std::string> names)
{
    const auto idx = static_cast<std::size_t>(kind);
    if (aux_names_.size() <= idx)
        aux_names_.resize(idx + 1);
    aux_names_[idx] = std::move(names);
}

const std::string &
TraceSink::auxName(EventKind kind, std::uint32_t aux) const
{
    static const std::string empty;
    const auto idx = static_cast<std::size_t>(kind);
    if (idx >= aux_names_.size() || aux >= aux_names_[idx].size())
        return empty;
    return aux_names_[idx][aux];
}

void
TraceSink::addChunk()
{
    chunks_.emplace_back();
    chunks_.back().reserve(chunk_records);
}

void
TraceSink::clear()
{
    chunks_.clear();
    size_ = 0;
    dropped_ = 0;
    lost_from_ = max_tick;
}

std::vector<TraceRecord>
mergeRecords(const std::vector<const TraceSink *> &sinks, Stream stream)
{
    const auto span = static_cast<std::uint16_t>(EventKind::ReqSpan);
    std::vector<TraceRecord> out;
    for (const TraceSink *s : sinks) {
        if (stream == Stream::Ring) {
            for (std::size_t c = 0; c < s->components().size(); ++c) {
                s->forEachRingEntry(
                    static_cast<std::uint16_t>(c),
                    [&](const RingEntry &e) { out.push_back(e.rec); });
            }
            continue;
        }
        const bool want_spans = stream == Stream::Spans;
        s->forEach([&](const TraceRecord &r) {
            if ((r.kind == span) == want_spans)
                out.push_back(r);
        });
    }
    // Sink order, then a stable (tick, component) sort: a component's
    // records all come from one sink, already in time order, so equal
    // keys keep that order and the result is a pure function of the
    // simulated timing.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         if (a.tick != b.tick)
                             return a.tick < b.tick;
                         return a.comp < b.comp;
                     });
    return out;
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

namespace
{

/** Comma-separated event stream writer (no trailing comma juggling). */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os_(os) {}

    std::ostream &
    next()
    {
        os_ << (first_ ? "\n    " : ",\n    ");
        first_ = false;
        return os_;
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
writeCommon(std::ostream &os, const char *name, const char *ph,
            Tick ts, std::uint16_t tid)
{
    os << "{\"name\": \"" << name << "\", \"ph\": \"" << ph
       << "\", \"ts\": " << ts << ", \"pid\": 0, \"tid\": " << tid;
}

} // namespace

void
TraceSink::exportChromeJson(std::ostream &os,
                            const std::vector<TraceRecord> &records,
                            std::uint64_t dropped,
                            const std::string &provenance_json) const
{
    if (!provenance_json.empty())
        os << "{\"provenance\": " << provenance_json
           << ",\n \"traceEvents\": [";
    else
        os << "{\"traceEvents\": [";
    EventWriter w(os);

    // Track names.  One Chrome "thread" per simulated component.
    w.next() << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0"
             << ", \"args\": {\"name\": \"fenceless\"}}";
    for (std::size_t i = 0; i < components_.size(); ++i) {
        w.next() << "{\"name\": \"thread_name\", \"ph\": \"M\", "
                 << "\"pid\": 0, \"tid\": " << i
                 << ", \"args\": {\"name\": \"" << components_[i]
                 << "\"}}";
    }
    if (dropped) {
        w.next() << "{\"name\": \"dropped_events\", \"ph\": \"M\", "
                 << "\"pid\": 0, \"args\": {\"count\": " << dropped
                 << "}}";
    }

    // Request-lifetime events are grouped per request id so the export
    // can chain them with flow arrows; everything else streams out in
    // recording order.
    std::map<std::uint64_t, std::vector<const TraceRecord *>> flows;

    // Host quantum phases are grouped per (shard track, quantum start):
    // a quantum's busy/barrier/drain wall-clock spans are scaled into
    // its tick window so the host timeline lines up with the guest
    // tracks (ticks are the shared x-axis).
    std::map<std::pair<std::uint16_t, Tick>,
             std::vector<const TraceRecord *>> host_quanta;

    // Assembled request-span stages (synthesized from the spans) are
    // grouped per request so each span renders as a chain of stage
    // slices connected by its own flow track.
    std::map<std::uint64_t, std::vector<const TraceRecord *>> spans;

    for (const TraceRecord &r : records) {
        const auto kind = static_cast<EventKind>(r.kind);
        const char *name = eventKindName(kind);
        switch (kind) {
          case EventKind::CoreCommit:
            writeCommon(w.next(), name, "C", r.tick, r.comp);
            os << ", \"args\": {\"insts\": " << r.a0 << "}}";
            break;

          case EventKind::SbOccupancy:
            writeCommon(w.next(), name, "C", r.tick, r.comp);
            os << ", \"args\": {\"entries\": " << r.a0 << "}}";
            break;

          case EventKind::CoreStall: {
            // Recorded once at stall end; a0 carries the begin tick.
            const Tick dur = r.tick > r.a0 ? r.tick - r.a0 : 1;
            writeCommon(w.next(), name, "X", r.a0, r.comp);
            os << ", \"dur\": " << dur << ", \"args\": {\"reason\": \""
               << auxName(kind, r.aux) << "\"}}";
            break;
          }

          case EventKind::SpecEpoch: {
            const Tick dur = r.tick > r.a0 ? r.tick - r.a0 : 1;
            writeCommon(w.next(), name, "X", r.a0, r.comp);
            os << ", \"dur\": " << dur
               << ", \"args\": {\"outcome\": \""
               << (r.aux ? "commit" : "rollback")
               << "\", \"insts\": " << r.a1 << "}}";
            break;
          }

          case EventKind::SpecRollback:
            writeCommon(w.next(), name, "i", r.tick, r.comp);
            os << ", \"s\": \"t\", \"args\": {\"cause\": \""
               << auxName(kind, r.aux) << "\", \"discarded_insts\": "
               << r.a1 << "}}";
            break;

          case EventKind::NetHop:
            writeCommon(w.next(), name, "i", r.tick, r.comp);
            os << ", \"s\": \"t\", \"args\": {\"req\": " << r.a0
               << ", \"latency\": " << r.a1 << ", \"msg\": \""
               << auxName(kind, r.aux) << "\"}}";
            break;

          case EventKind::ReqIssue:
          case EventKind::ReqDirIngress:
          case EventKind::ReqDirDone:
          case EventKind::ReqFill:
            if (r.a0 != 0)
                flows[r.a0].push_back(&r);
            break;

          case EventKind::HostPhase:
            if (r.a1 != 0)
                host_quanta[{r.comp, r.tick}].push_back(&r);
            break;

          case EventKind::ReqStage:
            if (r.a0 != 0)
                spans[r.a0].push_back(&r);
            break;

          case EventKind::HostCoord:
            writeCommon(w.next(), name, "i", r.tick, r.comp);
            os << ", \"s\": \"t\", \"args\": {\"ns\": " << r.a1
               << ", \"cause\": \"" << auxName(kind, r.aux)
               << "\"}}";
            break;

          case EventKind::ReqSpan:   // raw span boundaries: assembled
          case EventKind::NumKinds:  // into ReqStage slices, never
            break;                   // written as they are
        }
    }

    // Lay each quantum's host phases end to end inside [start, end),
    // sized proportionally to their wall-clock share.  Fractional ticks
    // are formatted with fixed precision so the bytes are identical
    // across shard counts and platforms.
    for (const auto &[key, phases] : host_quanta) {
        const Tick qstart = key.second;
        const Tick qend = phases.front()->a0;
        const double window =
            qend > qstart ? static_cast<double>(qend - qstart) : 1.0;
        std::uint64_t total_ns = 0;
        for (const TraceRecord *r : phases)
            total_ns += r->a1;
        if (total_ns == 0)
            continue;
        double cursor = static_cast<double>(qstart);
        for (const TraceRecord *r : phases) {
            const double dur = window * static_cast<double>(r->a1)
                               / static_cast<double>(total_ns);
            static const char *const phase_names[] = {
                "host_busy", "host_barrier", "host_drain"};
            const char *pname =
                r->aux < 3 ? phase_names[r->aux] : "host_phase";
            char ts_buf[32], dur_buf[32];
            std::snprintf(ts_buf, sizeof(ts_buf), "%.3f", cursor);
            std::snprintf(dur_buf, sizeof(dur_buf), "%.3f", dur);
            w.next() << "{\"name\": \"" << pname
                     << "\", \"ph\": \"X\", \"ts\": " << ts_buf
                     << ", \"pid\": 0, \"tid\": " << key.first
                     << ", \"dur\": " << dur_buf
                     << ", \"args\": {\"ns\": " << r->a1 << "}}";
            cursor += dur;
        }
    }

    // One short slice per request phase, chained by flow events: the
    // "s"/"t"/"f" triple makes Perfetto draw arrows L1 -> directory ->
    // L1 for each traced miss.
    for (auto &[req_id, events] : flows) {
        std::stable_sort(events.begin(), events.end(),
                         [](const TraceRecord *a, const TraceRecord *b) {
                             return a->tick < b->tick;
                         });
        for (std::size_t i = 0; i < events.size(); ++i) {
            const TraceRecord &r = *events[i];
            const auto kind = static_cast<EventKind>(r.kind);
            writeCommon(w.next(), eventKindName(kind), "X", r.tick,
                        r.comp);
            os << ", \"dur\": 1, \"args\": {\"req\": " << req_id;
            if (kind == EventKind::ReqIssue ||
                kind == EventKind::ReqFill) {
                os << ", \"block\": " << r.a1;
            }
            os << "}}";

            if (events.size() < 2)
                continue;
            const char *ph = i == 0 ? "s"
                             : i + 1 == events.size() ? "f" : "t";
            writeCommon(w.next(), "req", ph, r.tick, r.comp);
            os << ", \"cat\": \"req\", \"id\": " << req_id;
            if (*ph == 'f')
                os << ", \"bp\": \"e\"";
            os << "}";
        }
    }

    // Sampled request spans: one named slice per tiled stage on the
    // component that recorded it, chained by a per-request flow (cat
    // "span") so Perfetto draws the request's path through the memory
    // system as an arrow chain under the existing guest tracks.
    for (auto &[req_id, stages] : spans) {
        std::stable_sort(stages.begin(), stages.end(),
                         [](const TraceRecord *a, const TraceRecord *b) {
                             return a->tick < b->tick;
                         });
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const TraceRecord &r = *stages[i];
            const std::string &sname =
                auxName(EventKind::ReqStage, r.aux);
            writeCommon(w.next(),
                        sname.empty() ? "req_stage" : sname.c_str(),
                        "X", r.tick, r.comp);
            os << ", \"dur\": " << (r.a1 ? r.a1 : 1)
               << ", \"args\": {\"req\": " << req_id
               << ", \"cycles\": " << r.a1 << "}}";

            if (stages.size() < 2)
                continue;
            const char *ph = i == 0 ? "s"
                             : i + 1 == stages.size() ? "f" : "t";
            writeCommon(w.next(), "span", ph, r.tick, r.comp);
            os << ", \"cat\": \"span\", \"id\": " << req_id;
            if (*ph == 'f')
                os << ", \"bp\": \"e\"";
            os << "}";
        }
    }

    os << "\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n";
}

} // namespace fenceless::trace
