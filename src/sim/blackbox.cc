#include "sim/blackbox.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

namespace fenceless::trace
{

namespace
{

/**
 * Gather one component's surviving ring entries across sinks, oldest
 * first.  Exactly one sink records for any given component (components
 * are owned by one shard), so appending in sink order is the
 * per-component stream regardless of which sink holds it.
 */
void
gatherComponent(std::uint16_t comp,
                const std::vector<const TraceSink *> &sinks,
                std::vector<TraceRecord> &out)
{
    for (const TraceSink *s : sinks) {
        if (comp >= s->components().size())
            continue;
        s->forEachRingEntry(
            comp, [&](const RingEntry &e) { out.push_back(e.rec); });
    }
}

} // namespace

std::vector<TraceRecord>
blackboxRecordsMerged(const TraceSink &meta,
                      const std::vector<const TraceSink *> &sinks)
{
    // Canonical order: gather per component (global component-id
    // order), then stable-sort by tick.  Per-component streams are
    // already tick-monotone, so this is a time merge where same-tick
    // records from different components land in component-id order --
    // a rule that does not depend on how many host threads recorded
    // the events, which keeps sharded dumps byte-identical to the
    // single-threaded reference.
    std::vector<TraceRecord> out;
    for (std::size_t c = 0; c < meta.components().size(); ++c)
        gatherComponent(static_cast<std::uint16_t>(c), sinks, out);
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

std::vector<TraceRecord>
blackboxRecords(const TraceSink &sink)
{
    return blackboxRecordsMerged(sink, {&sink});
}

void
writeBlackboxJsonMerged(std::ostream &os, const TraceSink &meta,
                        const std::vector<const TraceSink *> &sinks,
                        const std::string &provenance_json)
{
    const auto records = blackboxRecordsMerged(meta, sinks);
    // Events pushed but since overwritten: report them as dropped so
    // the dump is honest about being a tail, not the full history.
    std::uint64_t pushes = 0;
    for (const TraceSink *s : sinks)
        pushes += s->ringPushes();
    const std::uint64_t overwritten =
        pushes - static_cast<std::uint64_t>(records.size());
    meta.exportChromeJsonFor(os, records, overwritten, provenance_json);
}

void
writeBlackboxJson(std::ostream &os, const TraceSink &sink,
                  const std::string &provenance_json)
{
    writeBlackboxJsonMerged(os, sink, {&sink}, provenance_json);
}

namespace
{

void
writeOne(std::ostream &os, const TraceSink &sink, const TraceRecord &r)
{
    const auto kind = static_cast<EventKind>(r.kind);
    os << "    @" << std::setw(12) << r.tick << "  "
       << eventKindName(kind);
    switch (kind) {
      case EventKind::CoreCommit:
        os << " insts=" << r.a0;
        break;
      case EventKind::CoreStall:
        os << " begin=" << r.a0 << " reason="
           << sink.auxName(kind, r.aux);
        break;
      case EventKind::SpecEpoch:
        os << " begin=" << r.a0 << " insts=" << r.a1 << " outcome="
           << (r.aux ? "commit" : "rollback");
        break;
      case EventKind::SpecRollback:
        os << " cause=" << sink.auxName(kind, r.aux)
           << " discarded=" << r.a1;
        break;
      case EventKind::SbOccupancy:
        os << " entries=" << r.a0;
        break;
      case EventKind::ReqIssue:
      case EventKind::ReqFill:
        os << " req=" << r.a0 << " block=0x" << std::hex << r.a1
           << std::dec;
        break;
      case EventKind::ReqDirIngress:
      case EventKind::ReqDirDone:
        os << " req=" << r.a0 << " a1=" << r.a1;
        break;
      case EventKind::NetHop:
        os << " req=" << r.a0 << " latency=" << r.a1 << " msg="
           << sink.auxName(kind, r.aux);
        break;
      case EventKind::HostPhase:
      case EventKind::HostCoord:
      case EventKind::ReqStage:
      case EventKind::NumKinds:
        break;
    }
    os << "\n";
}

} // namespace

void
writeBlackboxTailMerged(std::ostream &os, const TraceSink &meta,
                        const std::vector<const TraceSink *> &sinks,
                        std::size_t per_component)
{
    std::uint64_t pushes = 0;
    for (const TraceSink *s : sinks)
        pushes += s->ringPushes();
    os << "flight recorder tail (last " << per_component
       << " events per component, " << pushes << " recorded total):\n";
    for (std::size_t c = 0; c < meta.components().size(); ++c) {
        std::vector<TraceRecord> tail;
        gatherComponent(static_cast<std::uint16_t>(c), sinks, tail);
        if (tail.size() > per_component)
            tail.erase(tail.begin(),
                       tail.end() -
                           static_cast<std::ptrdiff_t>(per_component));
        os << "  " << meta.components()[c];
        if (tail.empty()) {
            os << ": (no events)\n";
            continue;
        }
        os << ":\n";
        for (const TraceRecord &r : tail)
            writeOne(os, meta, r);
    }
}

void
writeBlackboxTail(std::ostream &os, const TraceSink &sink,
                  std::size_t per_component)
{
    writeBlackboxTailMerged(os, sink, {&sink}, per_component);
}

} // namespace fenceless::trace
