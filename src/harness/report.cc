#include "harness/report.hh"

#include <sstream>

#include "base/provenance.hh"
#include "harness/table.hh"
#include "sim/blackbox.hh"
#include "sim/waitgraph.hh"

namespace fenceless::harness
{

namespace
{

/** WaitNode id for directory-side nodes: 0 = legacy, else bank + 1. */
std::uint32_t
dirWaitId(std::uint32_t banks, std::uint32_t b)
{
    return banks == 1 ? 0 : b + 1;
}

/** "label+offset" for a code pc, or "" when no label covers it. */
std::string
symbolizePc(const isa::Program &prog, std::uint64_t pc)
{
    auto it = prog.code_labels.upper_bound(pc);
    if (it == prog.code_labels.begin())
        return "";
    --it;
    std::ostringstream os;
    os << it->second;
    if (pc > it->first)
        os << "+" << (pc - it->first);
    return os.str();
}

/**
 * Walk every blocking component and register who-waits-on-whom
 * edges (see sim/waitgraph.hh).  Deterministic: iteration follows
 * index and address order only.
 */
void
buildWaitGraph(sim::WaitGraph &g, const System &sys)
{
    using sim::WaitNode;
    using Kind = sim::WaitNode::Kind;

    const std::uint32_t cores = sys.numCores();
    const std::uint32_t banks = sys.dirBanks();

    // Cores: what is each non-running core waiting for?
    for (std::uint32_t i = 0; i < cores; ++i) {
        const cpu::Core &core = sys.core(i);
        if (core.halted() || !core.idle())
            continue;
        const cpu::StallReason why = core.sleepReason();
        if (core.hasPendingAccess()) {
            g.addEdge(WaitNode{Kind::Core, i, 0},
                      WaitNode{Kind::Mshr, i,
                               sys.l1(i).blockAlign(core.pendingAddr())},
                      cpu::stallReasonName(why));
        } else if (why == cpu::StallReason::SpecLimit) {
            g.addEdge(WaitNode{Kind::Core, i, 0},
                      WaitNode{Kind::SpecEpoch, i, 0},
                      cpu::stallReasonName(why));
        } else {
            // All remaining sleep reasons wait on store-buffer state
            // (drain, space, or overlap clearing).
            g.addEdge(WaitNode{Kind::Core, i, 0},
                      WaitNode{Kind::StoreBuffer, i, 0},
                      cpu::stallReasonName(why));
        }
    }

    // Store buffers: issued drains wait on the L1 miss machinery.
    for (std::uint32_t i = 0; i < cores; ++i) {
        const auto &sb = sys.core(i).storeBuffer();
        for (const auto &e : sb.entries()) {
            if (!e.issued)
                continue;
            g.addEdge(WaitNode{Kind::StoreBuffer, i, 0},
                      WaitNode{Kind::Mshr, i,
                               sys.l1(i).blockAlign(e.addr)},
                      "drain store issued");
        }
        if (sb.retryPending()) {
            g.addEdge(WaitNode{Kind::StoreBuffer, i, 0},
                      WaitNode{Kind::Mshr, i, 0},
                      "drain retry parked (MSHR backpressure)");
        }
    }

    // Speculation: an open epoch commits only after the store buffer
    // drains to the watermark.
    for (std::uint32_t i = 0; i < cores; ++i) {
        const spec::SpecController *spec = sys.specController(i);
        if (spec && spec->inSpec()) {
            std::ostringstream label;
            label << "commit waits for drain to watermark "
                  << spec->watermark();
            g.addEdge(WaitNode{Kind::SpecEpoch, i, 0},
                      WaitNode{Kind::StoreBuffer, i, 0}, label.str());
        }
    }

    // L1 MSHRs: outstanding misses wait on directory transactions;
    // overflow-parked fills wait on the local epoch ending.
    for (std::uint32_t i = 0; i < cores; ++i) {
        sys.l1(i).forEachMshr([&](const mem::L1Cache::Mshr &m) {
            g.addEdge(WaitNode{Kind::Mshr, i, m.block_addr},
                      WaitNode{Kind::DirTxn,
                               dirWaitId(banks, sys.bankOf(m.block_addr)),
                               m.block_addr},
                      m.want_m ? "GetM outstanding"
                               : "GetS outstanding");
            if (m.fill_blocked) {
                g.addEdge(WaitNode{Kind::Mshr, i, m.block_addr},
                          WaitNode{Kind::SpecEpoch, i, 0},
                          "fill parked on speculative overflow");
            }
        });
    }

    // Directory transactions: what each active transaction awaits.
    // Bank-major order; each bank's forEachTxn is block-address sorted,
    // so dossiers stay deterministic at every bank count.
    for (std::uint32_t b = 0; b < banks; ++b) {
    const mem::Directory &bank_dir = sys.directoryBank(b);
    const std::uint32_t wid = dirWaitId(banks, b);
    bank_dir.forEachTxn([&](const mem::Directory::TxnView &t) {
        const WaitNode txn{Kind::DirTxn, wid, t.block};
        const std::string phase = t.phase;
        if (phase == "dram") {
            g.addEdge(txn, WaitNode{Kind::Dram, wid, 0},
                      "awaiting DRAM fill");
        } else if (phase == "fwd") {
            const mem::L2Block *blk = bank_dir.findBlock(t.block);
            if (blk && blk->hasOwner()) {
                std::ostringstream label;
                label << "awaiting Fwd*Ack from owner (serving "
                      << mem::msgTypeName(t.req_type) << " from node "
                      << t.requester << ")";
                g.addEdge(txn,
                          WaitNode{Kind::Core,
                                   static_cast<std::uint32_t>(
                                       blk->owner),
                                   0},
                          label.str());
            }
        } else if (phase == "inv-acks") {
            const mem::L2Block *blk = bank_dir.findBlock(t.block);
            if (blk) {
                for (std::uint32_t c = 0; c < cores; ++c) {
                    if (blk->isSharer(c)) {
                        g.addEdge(txn, WaitNode{Kind::Core, c, 0},
                                  "awaiting InvAck");
                    }
                }
            }
        }
        // A recall transaction unblocks the request parked behind it;
        // victim and blocked request both live in this bank's slice.
        if (t.is_recall && t.has_resume) {
            g.addEdge(WaitNode{Kind::DirTxn, wid, t.resume_block}, txn,
                      "blocked on recall of L2 victim");
        }
    });
    }

    // Network channels with traffic still in flight: informational --
    // a populated channel means delivery (progress) is still coming.
    sys.network().forEachChannel([&](mem::NodeId src, mem::NodeId dst,
                                     const mem::Network::Channel &ch) {
        if (ch.in_flight == 0)
            return;
        std::ostringstream label;
        label << ch.in_flight << " message(s) in flight";
        const std::uint32_t chan_id = (src << 8) | dst;
        if (dst >= cores) {
            g.addEdge(WaitNode{Kind::Channel, chan_id, 0},
                      WaitNode{Kind::Directory,
                               dirWaitId(banks, dst - cores), 0},
                      label.str());
        } else {
            g.addEdge(WaitNode{Kind::Channel, chan_id, 0},
                      WaitNode{Kind::Core, dst, 0}, label.str());
        }
    });
}

} // namespace

void
writeTailReport(std::ostream &os, const System &sys)
{
    const SystemConfig &cfg = sys.config();
    if (cfg.tail_sample == 0) {
        os << "tail report: span tracing was off "
              "(--tail-sample / --tail-report enables it)\n";
        return;
    }
    const reqtrace::TailAttribution &at = sys.tailAttribution();
    os << "=== tail report (per-request span attribution) ===\n";
    os << "sampling: 1 in " << cfg.tail_sample
       << " misses; spans=" << at.spans << " (incl. waiter spans), "
       << "incomplete=" << sys.tailSpans().incomplete << "\n";
    os << "e2e latency (cycles): p50=" << at.e2e_p50 << " p95="
       << at.e2e_p95 << " p99=" << at.e2e_p99 << " p99.9="
       << at.e2e_p999 << "\n";

    // The per-stage sums must tile the end-to-end latencies exactly:
    // spans record boundary events only, so this reconciliation is by
    // construction -- print it so regressions are visible.
    std::uint64_t stage_cycles = 0;
    for (const reqtrace::StageRow &row : at.rows)
        stage_cycles += row.cycles;
    os << "stage cycles " << stage_cycles << " / e2e cycles "
       << at.e2e_cycles
       << (stage_cycles == at.e2e_cycles ? " (reconciled exactly)"
                                         : " (MISMATCH)")
       << "\n\n";

    Table t({"stage", "spans", "cycles", "share%", "p50", "p95", "p99",
             "p99.9", "tail_own"});
    for (const reqtrace::StageRow &row : at.rows) {
        t.addRow({reqtrace::stageName(row.stage),
                  std::to_string(row.spans),
                  std::to_string(row.cycles),
                  fmt(at.e2e_cycles
                          ? 100.0 * static_cast<double>(row.cycles)
                                / static_cast<double>(at.e2e_cycles)
                          : 0.0),
                  std::to_string(row.p50), std::to_string(row.p95),
                  std::to_string(row.p99), std::to_string(row.p999),
                  std::to_string(row.tail_owned)});
    }
    t.print(os);

    os << "\ntail ownership (" << at.tail_spans
       << " spans above p99=" << at.e2e_p99 << "):";
    for (const reqtrace::StageRow *row : at.tailRanking()) {
        if (row->tail_owned == 0)
            continue;
        os << " " << reqtrace::stageName(row->stage) << "="
           << row->tail_owned;
    }
    os << "\n=== end tail report ===\n";
}

void
writeOutliers(std::ostream &os, const System &sys)
{
    const SystemConfig &cfg = sys.config();
    const reqtrace::SpanSet &spans = sys.tailSpans();
    const std::vector<const reqtrace::Span *> top =
        reqtrace::topK(spans, cfg.tail_outliers);
    const std::vector<std::uint64_t> lmsgs =
        sys.network().foldedLinkMsgs();
    const mem::Topology topo = cfg.net.topology;
    const std::uint32_t nn = cfg.num_cores + cfg.dir_banks;

    os << "{\n  \"schema_version\": 1,\n  \"provenance\": "
       << sys.provenanceJson() << ",\n  \"sampling_period\": "
       << cfg.tail_sample << ",\n  \"spans\": "
       << spans.spans.size() << ",\n  \"outliers\": [";
    bool first = true;
    for (const reqtrace::Span *sp : top) {
        const std::uint32_t bank = sys.bankOf(sp->block);
        const auto dir_node =
            static_cast<mem::NodeId>(cfg.num_cores + bank);
        const auto core_node = static_cast<mem::NodeId>(sp->core());

        // The hottest link (whole-run traffic) on the request + reply
        // route -- routes are pure functions of (src, dst), so this
        // needs no per-hop events.
        std::uint64_t hot_msgs = 0;
        std::int64_t hot_link = -1;
        if (!lmsgs.empty()) {
            const auto consider = [&](std::uint32_t l) {
                if (l < lmsgs.size() &&
                    (hot_link < 0 || lmsgs[l] > hot_msgs)) {
                    hot_msgs = lmsgs[l];
                    hot_link = l;
                }
            };
            mem::forEachRouteLink(topo, nn, core_node, dir_node,
                                  consider);
            mem::forEachRouteLink(topo, nn, dir_node, core_node,
                                  consider);
        }

        os << (first ? "" : ",") << "\n    {\"req_id\": " << sp->req_id
           << ", \"core\": " << sp->core() << ", \"seq\": " << sp->seq()
           << ", \"block\": \"0x" << std::hex << sp->block << std::dec
           << "\", \"pc\": " << sp->pc << ", \"pc_sym\": \""
           << symbolizePc(sys.program(), sp->pc) << "\", \"issue\": "
           << sp->issue << ", \"done\": " << sp->done << ", \"latency\": "
           << sp->latency() << ", \"waiters\": " << sp->waiters
           << ", \"retries\": " << sp->retries << ", \"dir_bank\": \""
           << sys.dirBankName(bank) << "\"";
        if (hot_link >= 0) {
            os << ", \"hot_link\": \""
               << mem::linkName(topo,
                                static_cast<std::uint32_t>(hot_link))
               << "\", \"hot_link_msgs\": " << hot_msgs;
        }
        os << ", \"stages\": [";
        bool sfirst = true;
        for (const reqtrace::SpanStage &st : sp->stages) {
            os << (sfirst ? "" : ", ") << "{\"stage\": \""
               << reqtrace::stageName(st.stage) << "\", \"at\": "
               << st.at << ", \"cycles\": " << st.cycles
               << ", \"aux\": " << st.aux;
            if (st.flags & reqtrace::span_flag_retry)
                os << ", \"retry\": true";
            os << "}";
            sfirst = false;
        }
        os << "]}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

void
writeArchState(std::ostream &os, const System &sys)
{
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const cpu::Core &core = sys.core(i);
        os << "  core_" << i << ": pc=" << core.pc();
        if (const std::string sym = symbolizePc(sys.program(), core.pc());
            !sym.empty())
            os << " (" << sym << ")";
        os << " instret=" << core.instret() << " model="
           << cpu::consistencyModelName(core.model());
        if (core.halted()) {
            os << " halted";
        } else if (core.idle()) {
            os << " asleep=" << cpu::stallReasonName(core.sleepReason())
               << " since=" << core.sleepBegin();
            if (core.hasPendingAccess())
                os << " pending=0x" << std::hex << core.pendingAddr()
                   << std::dec;
        } else {
            os << " running";
        }
        const auto &sb = core.storeBuffer();
        os << " sb=" << sb.occupancy() << "/" << sb.capacity();
        if (const spec::SpecController *spec = sys.specController(i)) {
            if (spec->inSpec()) {
                os << " spec{epoch=" << spec->epoch() << " since="
                   << spec->epochStartTick() << " watermark="
                   << spec->watermark() << "}";
            }
            if (spec->cooldown() > 0)
                os << " cooldown=" << spec->cooldown();
            if (spec->consecutiveRollbacks() > 0)
                os << " consec_rollbacks="
                   << spec->consecutiveRollbacks();
        }
        os << "\n";
    }
}

void
writeStallDossier(std::ostream &os, const System &sys, Tick tick)
{
    const sim::Watchdog::Report &report = sys.watchdogReport();
    os << "=== stall dossier @" << tick << " ===\n";
    os << "build: " << provenance::oneLine() << "\n";
    if (report.cause != sim::Watchdog::Cause::None) {
        os << "watchdog: cause=" << sim::Watchdog::causeName(report.cause)
           << " window=[" << report.window_begin << ", "
           << report.fire_tick << "] instret=" << report.instret
           << " rollbacks_in_window=" << report.rollbacks_in_window
           << "\n";
    }
    if (sys.network().droppedMsgs() > 0) {
        os << "network: " << sys.network().droppedMsgs()
           << " message(s) dropped by fault injection\n";
    }
    os << "architectural state:\n";
    writeArchState(os, sys);
    sim::WaitGraph g;
    buildWaitGraph(g, sys);
    g.print(os);
    trace::writeBlackboxTail(os, sys.tracer());
    os << "=== end dossier ===\n";
}

} // namespace fenceless::harness
