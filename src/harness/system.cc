#include "harness/system.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "base/provenance.hh"
#include "base/stats_json.hh"
#include "base/trace.hh"
#include "harness/table.hh"
#include "isa/interp.hh"
#include "sim/blackbox.hh"

namespace fenceless::harness
{

namespace
{

/**
 * Stat-group / trace-component name of directory bank @p b.  The
 * single-bank system keeps the historical "l2dir" name so every stats,
 * trace and blackbox document stays byte-identical to pre-banking runs.
 */
std::string
dirBankName(std::uint32_t banks, std::uint32_t b)
{
    return banks == 1 ? std::string("l2dir")
                      : "l2dir.bank" + std::to_string(b);
}

/** WaitNode id for directory-side nodes: 0 = legacy, else bank + 1. */
std::uint32_t
dirWaitId(std::uint32_t banks, std::uint32_t b)
{
    return banks == 1 ? 0 : b + 1;
}

} // namespace

std::uint32_t
System::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>(addr / config_.l2.block_size)
           & (config_.dir_banks - 1);
}

std::vector<prof::CodeSym>
System::codeSyms() const
{
    std::vector<prof::CodeSym> syms;
    for (const auto &[index, label] : prog_.code_labels)
        syms.push_back({index, label});
    return syms;
}

std::vector<prof::DataSym>
System::dataSyms() const
{
    std::vector<prof::DataSym> syms;
    for (const auto &sym : prog_.symbols)
        syms.push_back({sym.addr, sym.size, sym.name});
    return syms;
}

namespace
{

/** @return true if @p size splits into 2^k @p assoc-way sets. */
bool
validGeometry(std::uint64_t size, unsigned assoc, unsigned block_size)
{
    const std::uint64_t set_bytes =
        static_cast<std::uint64_t>(assoc) * block_size;
    return set_bytes != 0 && size % set_bytes == 0 &&
           isPowerOf2(size / set_bytes);
}

} // namespace

std::string
SystemConfig::check() const
{
    using detail::concat;
    if (num_cores < 1 || num_cores > mem::max_cores)
        return concat("core count must be in [1, ", mem::max_cores,
                      "] (got ", num_cores, ")");
    if (sb_size < 1)
        return "the store buffer needs at least one entry";
    if (!isPowerOf2(l1.block_size) || l1.block_size != l2.block_size)
        return "L1 and L2 block sizes must match and be a power of two";
    if (!isPowerOf2(dir_banks) || dir_banks > 64)
        return concat("directory banks must be a power of two in "
                      "[1, 64] (got ", dir_banks, ")");
    if (!validGeometry(l1.size, l1.assoc, l1.block_size))
        return concat("L1 of ", l1.size, " bytes does not split into a "
                      "power-of-two number of ", l1.assoc, "-way sets");
    if (l2.size % dir_banks != 0 ||
        !validGeometry(l2.size / dir_banks, l2.assoc, l2.block_size))
        return concat("L2 of ", l2.size, " bytes over ", dir_banks,
                      " bank(s) does not split into a power-of-two "
                      "number of ", l2.assoc, "-way sets per bank");
    if (net.topology != mem::Topology::Crossbar && net.hop_latency == 0)
        return concat("per-hop latency must be positive on the ",
                      mem::topologyName(net.topology));
    if (net.link_bytes_per_cycle == 0)
        return "network link bandwidth must be positive";
    return "";
}

System::System(const SystemConfig &config, const isa::Program &prog)
    : config_(config), prog_(prog)
{
    const std::string bad = config_.check();
    flAssert(bad.empty(), bad);

    trace::TraceSink &tracer = ctx_.tracer;
    tracer.setMask(config_.trace_mask);

    // Pre-register the component list in a fixed order, so component
    // ids -- the track ids of every trace and blackbox dump -- do not
    // depend on the order the components below happen to register in.
    tracer.registerComponent("network");
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        tracer.registerComponent("l1_" + std::to_string(i));
        tracer.registerComponent("net.rx" + std::to_string(i));
    }
    for (std::uint32_t b = 0; b < config_.dir_banks; ++b) {
        tracer.registerComponent(dirBankName(config_.dir_banks, b));
        tracer.registerComponent(
            "net.rx" + std::to_string(config_.num_cores + b));
    }
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        tracer.registerComponent("core_" + std::to_string(i));
        tracer.registerComponent("core_" + std::to_string(i) + ".sb");
    }
    if (config_.spec.mode != spec::SpecMode::Off) {
        for (std::uint32_t i = 0; i < config_.num_cores; ++i)
            tracer.registerComponent("spec_" + std::to_string(i));
    }

    // Flight recorder: configured after the component list is known,
    // so the ring storage is sized in ONE allocation.  Registering a
    // component into a live ring grows it with a full reallocate-and-
    // copy, which is quadratic over the list and -- worse -- cycles
    // the heap through every intermediate size on each System
    // construction, fragmenting long-lived benchmark/sweep processes.
    // The components constructed below re-register idempotently and
    // never grow the ring.
    if (config_.blackbox_records > 0)
        tracer.configureRing(config_.blackbox_records,
                             trace::default_blackbox_flags);

    // The profiler must be configured before any component
    // construction below: each component caches ifEnabled() exactly
    // once.
    if (config_.profile) {
        ctx_.profiler.configure(prog_.code.size(), config_.num_cores,
                                config_.l1.block_size, codeSyms(),
                                dataSyms());
    }

    // Span sampling is a predicate on the trace sink, set next to its
    // mask and ring.  Everything below -- the aux names, the
    // "tailtrace" stat group -- exists only when tracing is on, so a
    // tracing-off run's stats/trace documents are byte-identical to a
    // build without the feature.
    if (config_.tail_sample > 0) {
        tracer.configureSampling(config_.tail_sample);
        std::vector<std::string> stage_names;
        for (std::size_t s = 0; s < reqtrace::num_stages; ++s) {
            stage_names.emplace_back(reqtrace::stageName(
                static_cast<reqtrace::Stage>(s)));
        }
        tracer.setAuxNames(trace::EventKind::ReqStage,
                           std::move(stage_names));
        statistics::StatGroup &g = ctx_.stats.createGroup("tailtrace");
        tail_stat_spans_ = &g.addScalar("sampled_spans",
            "complete primary request spans sampled");
        tail_stat_waiters_ = &g.addScalar("waiter_spans",
            "coalesced-waiter spans sampled");
        tail_stat_incomplete_ = &g.addScalar("incomplete_spans",
            "sampled spans cut off at end of run");
        tail_stat_retries_ = &g.addScalar("fill_retries",
            "fill yanks across sampled spans");
        tail_stat_e2e_ = &g.addDistribution("e2e_latency",
            "end-to-end cycles of sampled spans (incl. waiters)");
        for (std::size_t s = 0; s < reqtrace::num_stages - 1; ++s) {
            tail_stat_stage_.push_back(&g.addDistribution(
                std::string("stage_") + reqtrace::stageName(
                    static_cast<reqtrace::Stage>(s)),
                "per-span cycles attributed to this stage"));
        }
    }

    isa::loadImage(prog_, backing_);

    // The topology layer needs the endpoint count for routing; the
    // crossbar ignores it but gets the true value anyway.
    config_.net.num_nodes = config_.num_cores + config_.dir_banks;
    network_ = std::make_unique<mem::Network>(ctx_, "network",
                                              config_.net);

    const mem::DirectoryMap dirmap(config_.num_cores, config_.dir_banks,
                                   floorLog2(config_.l2.block_size));
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        l1s_.push_back(std::make_unique<mem::L1Cache>(
            ctx_, "l1_" + std::to_string(i), config_.l1, i, dirmap,
            *network_));
    }
    for (std::uint32_t b = 0; b < config_.dir_banks; ++b) {
        mem::Directory::Params bank_params = config_.l2;
        bank_params.size = config_.l2.size / config_.dir_banks;
        bank_params.banks = config_.dir_banks;
        bank_params.bank = b;
        dirs_.push_back(std::make_unique<mem::Directory>(
            ctx_, dirBankName(config_.dir_banks, b), bank_params,
            config_.num_cores + b, config_.num_cores, *network_,
            backing_));
    }

    cpu::Core::Params core_params;
    core_params.model = config_.model;
    core_params.sb_size = config_.sb_size;
    core_params.sb_max_inflight = config_.sb_max_inflight;
    core_params.sb_prefetch_depth = config_.sb_prefetch_depth;
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        cores_.push_back(std::make_unique<cpu::Core>(
            ctx_, "core_" + std::to_string(i), core_params, i, prog_,
            *l1s_[i], config_.num_cores));
        cores_.back()->setHaltCallback([this] { ++halted_; });
    }

    if (config_.spec.mode != spec::SpecMode::Off) {
        for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
            specs_.push_back(std::make_unique<spec::SpecController>(
                ctx_, "spec_" + std::to_string(i), config_.spec,
                *cores_[i], *l1s_[i]));
        }
    }

    if (config_.watchdog_interval > 0) {
        sim::Watchdog::Params wp;
        wp.interval = config_.watchdog_interval;
        wp.storm_threshold = config_.watchdog_storm;
        watchdog_ = std::make_unique<sim::Watchdog>(wp, [this] {
            sim::Watchdog::Progress p;
            for (const auto &core : cores_)
                p.instret += core->instret();
            for (const auto &s : specs_)
                p.rollbacks += s->rollbacks();
            p.all_halted = halted_ == config_.num_cores;
            return p;
        });
    }
}

bool
System::run()
{
    for (auto &core : cores_)
        core->reset();

    drv_ = DriverState{};
    drv_.active = true;
    drv_.now = ctx_.curTick();
    drv_.next_snapshot = config_.stats_interval > 0
                             ? drv_.now + config_.stats_interval
                             : max_tick;
    if (watchdog_) {
        watchdog_->prime(drv_.now);
        drv_.next_wd = drv_.now + watchdog_->interval();
    }
    drv_.boundary = nextDeadline(halted_ == config_.num_cores);

    // If a simulator invariant trips mid-run, dump this system's
    // evidence before aborting.  The hook is thread-local, so sweep
    // workers guard their own systems.
    auto prev = setPanicHook([this] {
        std::ostringstream os;
        os << "=== incident dump (panic) ===\n";
        writeArchState(os);
        trace::writeBlackboxTail(os, ctx_.tracer);
        reportBlock(os.str());
    });
    // Run the events up to the next coordinator deadline, then take
    // the coordinator step there.
    while (!drv_.done) {
        ctx_.eventq.run(drv_.boundary - 1);
        coordinatorStep();
    }
    setPanicHook(std::move(prev));
    drv_.active = false;

    network_->finalizeStats();
    if (config_.tail_sample > 0)
        finalizeTailTrace();
    return !hung_ && halted_ == config_.num_cores;
}

void
System::coordinatorStep()
{
    const Tick b = drv_.boundary;
    drv_.now = b;

    if (b == drv_.next_snapshot) {
        takeSnapshot(b);
        drv_.next_snapshot = halted_ < config_.num_cores
                                 ? b + config_.stats_interval
                                 : max_tick;
    }

    if (b == drv_.next_wd) {
        if (halted_ == config_.num_cores) {
            drv_.next_wd = max_tick; // clean completion: stand down
        } else if (watchdog_->checkAt(b)) {
            onWatchdogFire(watchdog_->report());
            drv_.done = true;
            return;
        } else {
            drv_.next_wd = b + watchdog_->interval();
        }
    }

    const bool all_halted = halted_ == config_.num_cores;
    if (b > config_.max_cycles && !all_halted) {
        drv_.done = true; // cycle budget exhausted
        return;
    }

    if (ctx_.eventq.empty()) {
        // Nothing can happen until the coordinator itself acts.  A
        // wedged (not-halted) system stays alive for the watchdog or
        // the snapshot series; otherwise take the one trailing
        // snapshot the interval still owes and finish.
        const bool keep_alive =
            !all_halted &&
            (watchdog_ != nullptr || drv_.next_snapshot != max_tick);
        if (!keep_alive) {
            if (drv_.next_snapshot != max_tick)
                takeSnapshot(drv_.next_snapshot);
            drv_.done = true;
            return;
        }
    }

    drv_.boundary = nextDeadline(all_halted);
}

Tick
System::nextDeadline(bool all_halted) const
{
    Tick nb = std::min(drv_.next_snapshot, drv_.next_wd);
    if (!all_halted && config_.max_cycles < max_tick)
        nb = std::min(nb, config_.max_cycles + 1);
    return nb;
}

void
System::takeSnapshot(Tick tick)
{
    std::ostringstream os;
    statistics::printGroupsJson(os, ctx_.stats);
    snapshots_.push_back(StatSnapshot{tick, os.str()});
}

std::string
System::provenanceJson() const
{
    std::string p = provenance::jsonObject();
    std::ostringstream extra;
    extra << ", \"sim_mode\": {\"parallel_sim\": 0, \"shards\": 1"
          << ", \"dir_banks\": " << config_.dir_banks
          << ", \"topology\": \""
          << mem::topologyName(config_.net.topology) << "\"}";
    const auto pos = p.rfind('}');
    if (pos != std::string::npos)
        p.insert(pos, extra.str());
    return p;
}

void
System::writeStatsJson(std::ostream &os) const
{
    os << "{\n  \"schema_version\": "
       << statistics::stats_schema_version
       << ",\n  \"provenance\": " << provenanceJson()
       << ",\n  \"groups\": ";
    statistics::printGroupsJson(os, ctx_.stats);
    os << ",\n  \"schema\": ";
    statistics::printSchemaJson(os, ctx_.stats);
    os << ",\n  \"snapshots\": [";
    bool first = true;
    for (const auto &snap : snapshots_) {
        os << (first ? "" : ",") << "\n    {\"tick\": " << snap.tick
           << ", \"groups\": " << snap.groups_json << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

void
System::finalizeTailTrace()
{
    if (tail_finalized_)
        return;
    tail_finalized_ = true;

    // The ReqSpan records in the canonical merge order; assembleSpans
    // regroups them by (req, tick).  A span that reaches the first
    // tick the sink dropped a record at is counted incomplete rather
    // than tiled from what survived.
    tail_spans_ = reqtrace::assembleSpans(
        trace::mergeRecords(ctx_.tracer, trace::Stream::Spans),
        ctx_.tracer.lostFrom());
    tail_attr_ = reqtrace::attributeStages(tail_spans_);

    // Fill the "tailtrace" stat group in canonical span order.
    std::uint64_t primaries = 0, waiters = 0, retries = 0;
    for (const reqtrace::Span &s : tail_spans_.spans) {
        ++(s.waiter ? waiters : primaries);
        retries += s.retries;
        tail_stat_e2e_->sample(static_cast<double>(s.latency()));
        std::array<Tick, reqtrace::num_stages> per{};
        for (const reqtrace::SpanStage &st : s.stages)
            per[static_cast<std::size_t>(st.stage)] += st.cycles;
        for (std::size_t b = 0; b < tail_stat_stage_.size(); ++b) {
            if (per[b])
                tail_stat_stage_[b]->sample(
                    static_cast<double>(per[b]));
        }
    }
    *tail_stat_spans_ = primaries;
    *tail_stat_waiters_ = waiters;
    *tail_stat_incomplete_ = tail_spans_.incomplete;
    *tail_stat_retries_ = retries;
}

void
System::writeTailReport(std::ostream &os) const
{
    if (config_.tail_sample == 0) {
        os << "tail report: span tracing was off "
              "(--tail-sample / --tail-report enables it)\n";
        return;
    }
    const reqtrace::TailAttribution &at = tail_attr_;
    os << "=== tail report (per-request span attribution) ===\n";
    os << "sampling: 1 in " << config_.tail_sample
       << " misses; spans=" << at.spans << " (incl. waiter spans), "
       << "incomplete=" << tail_spans_.incomplete << "\n";
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
System::writeOutliers(std::ostream &os) const
{
    const std::vector<const reqtrace::Span *> top =
        reqtrace::topK(tail_spans_, config_.tail_outliers);
    const std::vector<std::uint64_t> lmsgs =
        network_->foldedLinkMsgs();
    const mem::Topology topo = config_.net.topology;
    const std::uint32_t nn = config_.num_cores + config_.dir_banks;

    os << "{\n  \"schema_version\": 1,\n  \"provenance\": "
       << provenanceJson() << ",\n  \"sampling_period\": "
       << config_.tail_sample << ",\n  \"spans\": "
       << tail_spans_.spans.size() << ",\n  \"outliers\": [";
    bool first = true;
    for (const reqtrace::Span *sp : top) {
        const std::uint32_t bank = bankOf(sp->block);
        const auto dir_node =
            static_cast<mem::NodeId>(config_.num_cores + bank);
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
           << symbolizePc(sp->pc) << "\", \"issue\": " << sp->issue
           << ", \"done\": " << sp->done << ", \"latency\": "
           << sp->latency() << ", \"waiters\": " << sp->waiters
           << ", \"retries\": " << sp->retries << ", \"dir_bank\": \""
           << dirBankName(config_.dir_banks, bank) << "\"";
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

Tick
System::runtimeCycles() const
{
    Tick last = 0;
    for (const auto &core : cores_) {
        last = std::max(last,
                        core->statGroup().scalarCount("halt_tick"));
    }
    return last;
}

std::uint64_t
System::debugRead(Addr addr, unsigned size) const
{
    // Only the directory's owner can hold M/E (see auditCoherence), so
    // read that one L1; an MStale owner defers to the L2 copy.
    const mem::Directory &home = *dirs_[bankOf(addr)];
    const mem::L2Block *l2 = home.findBlock(addr);
    std::uint64_t v = 0;
    if (l2 && l2->hasOwner() && l1s_[l2->owner]->debugRead(addr, size, v))
        return v;
    return home.debugRead(addr, size);
}

std::uint64_t
System::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &core : cores_)
        total += core->instret();
    return total;
}

std::uint64_t
System::totalCommits() const
{
    std::uint64_t total = 0;
    for (const auto &s : specs_)
        total += s->commits();
    return total;
}

std::uint64_t
System::totalRollbacks() const
{
    std::uint64_t total = 0;
    for (const auto &s : specs_)
        total += s->rollbacks();
    return total;
}

bool
System::quiesced() const
{
    if (!ctx_.eventq.empty())
        return false;
    for (const auto &l1 : l1s_) {
        if (!l1->quiesced())
            return false;
    }
    for (const auto &d : dirs_) {
        if (!d->quiesced())
            return false;
    }
    return true;
}

void
System::exportTrace(std::ostream &os) const
{
    // Canonical order (the same rule the flight recorder and the span
    // assembly use).  Raw ReqSpan records stay out: the spans appear
    // as the ReqStage slices below.
    std::vector<trace::TraceRecord> records =
        trace::mergeRecords(ctx_.tracer, trace::Stream::Trace);
    // Synthesize ReqStage records from the assembled spans -- at
    // export time only, so a tracing-off dump carries no trace of the
    // feature and live recording pays nothing for it.
    if (config_.tail_sample > 0) {
        for (const reqtrace::Span &sp : tail_spans_.spans) {
            for (const reqtrace::SpanStage &st : sp.stages) {
                trace::TraceRecord r{};
                r.tick = st.at;
                r.a0 = sp.req_id;
                r.a1 = st.cycles;
                r.comp = st.node;
                r.kind = static_cast<std::uint16_t>(
                    trace::EventKind::ReqStage);
                r.aux = static_cast<std::uint32_t>(st.stage);
                records.push_back(r);
            }
        }
        std::stable_sort(records.begin(), records.end(),
                         [](const trace::TraceRecord &a,
                            const trace::TraceRecord &b) {
                             return a.tick < b.tick;
                         });
    }
    ctx_.tracer.exportChromeJson(os, records, ctx_.tracer.dropped(),
                                 provenanceJson());
}

void
System::writeBlackbox(std::ostream &os) const
{
    trace::writeBlackboxJson(os, ctx_.tracer, provenanceJson());
}

void
System::writeBlackboxTail(std::ostream &os,
                          std::size_t per_component) const
{
    trace::writeBlackboxTail(os, ctx_.tracer, per_component);
}

prof::Profile
System::profile(const std::string &scope) const
{
    return ctx_.profiler.snapshot(scope);
}

std::string
System::symbolizePc(std::uint64_t pc) const
{
    auto it = prog_.code_labels.upper_bound(pc);
    if (it == prog_.code_labels.begin())
        return "";
    --it;
    std::ostringstream os;
    os << it->second;
    if (pc > it->first)
        os << "+" << (pc - it->first);
    return os.str();
}

void
System::writeArchState(std::ostream &os) const
{
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        const cpu::Core &core = *cores_[i];
        os << "  core_" << i << ": pc=" << core.pc();
        if (const std::string sym = symbolizePc(core.pc()); !sym.empty())
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
        if (!specs_.empty()) {
            const auto &spec = *specs_[i];
            if (spec.inSpec()) {
                os << " spec{epoch=" << spec.epoch() << " since="
                   << spec.epochStartTick() << " watermark="
                   << spec.watermark() << "}";
            }
            if (spec.cooldown() > 0)
                os << " cooldown=" << spec.cooldown();
            if (spec.consecutiveRollbacks() > 0)
                os << " consec_rollbacks="
                   << spec.consecutiveRollbacks();
        }
        os << "\n";
    }
}

void
System::buildWaitGraph(sim::WaitGraph &g) const
{
    using sim::WaitNode;
    using Kind = sim::WaitNode::Kind;

    const std::uint32_t banks = config_.dir_banks;

    // Cores: what is each non-running core waiting for?
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        const cpu::Core &core = *cores_[i];
        if (core.halted() || !core.idle())
            continue;
        const cpu::StallReason why = core.sleepReason();
        if (core.hasPendingAccess()) {
            g.addEdge(WaitNode{Kind::Core, i, 0},
                      WaitNode{Kind::Mshr, i,
                               l1s_[i]->blockAlign(core.pendingAddr())},
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
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        const auto &sb = cores_[i]->storeBuffer();
        for (const auto &e : sb.entries()) {
            if (!e.issued)
                continue;
            g.addEdge(WaitNode{Kind::StoreBuffer, i, 0},
                      WaitNode{Kind::Mshr, i,
                               l1s_[i]->blockAlign(e.addr)},
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
    for (std::uint32_t i = 0; i < specs_.size(); ++i) {
        if (specs_[i]->inSpec()) {
            std::ostringstream label;
            label << "commit waits for drain to watermark "
                  << specs_[i]->watermark();
            g.addEdge(WaitNode{Kind::SpecEpoch, i, 0},
                      WaitNode{Kind::StoreBuffer, i, 0}, label.str());
        }
    }

    // L1 MSHRs: outstanding misses wait on directory transactions;
    // overflow-parked fills wait on the local epoch ending.
    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        l1s_[i]->forEachMshr([&](const mem::L1Cache::Mshr &m) {
            g.addEdge(WaitNode{Kind::Mshr, i, m.block_addr},
                      WaitNode{Kind::DirTxn,
                               dirWaitId(banks, bankOf(m.block_addr)),
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
    const mem::Directory &bank_dir = *dirs_[b];
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
                for (std::uint32_t c = 0; c < config_.num_cores; ++c) {
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
    network_->forEachChannel([&](mem::NodeId src, mem::NodeId dst,
                                 const mem::Network::Channel &ch) {
        if (ch.in_flight == 0)
            return;
        std::ostringstream label;
        label << ch.in_flight << " message(s) in flight";
        const std::uint32_t chan_id = (src << 8) | dst;
        if (dst >= config_.num_cores) {
            g.addEdge(WaitNode{Kind::Channel, chan_id, 0},
                      WaitNode{Kind::Directory,
                               dirWaitId(banks, dst - config_.num_cores),
                               0},
                      label.str());
        } else {
            g.addEdge(WaitNode{Kind::Channel, chan_id, 0},
                      WaitNode{Kind::Core, dst, 0}, label.str());
        }
    });
}

void
System::writeStallDossier(std::ostream &os) const
{
    os << "=== stall dossier @"
       << (drv_.active ? drv_.now : curTick()) << " ===\n";
    os << "build: " << provenance::oneLine() << "\n";
    if (watchdog_report_.cause != sim::Watchdog::Cause::None) {
        os << "watchdog: cause="
           << sim::Watchdog::causeName(watchdog_report_.cause)
           << " window=[" << watchdog_report_.window_begin << ", "
           << watchdog_report_.fire_tick << "] instret="
           << watchdog_report_.instret << " rollbacks_in_window="
           << watchdog_report_.rollbacks_in_window << "\n";
    }
    if (network_->droppedMsgs() > 0) {
        os << "network: " << network_->droppedMsgs()
           << " message(s) dropped by fault injection\n";
    }
    os << "architectural state:\n";
    writeArchState(os);
    sim::WaitGraph g;
    buildWaitGraph(g);
    g.print(os);
    writeBlackboxTail(os);
    os << "=== end dossier ===\n";
}

void
System::onWatchdogFire(const sim::Watchdog::Report &report)
{
    hung_ = true;
    watchdog_report_ = report;
    std::ostringstream os;
    os << "watchdog: no forward progress for " << config_.watchdog_interval
       << " cycles; aborting the run\n";
    std::ostringstream dossier;
    writeStallDossier(dossier);
    dossier_ = dossier.str();
    reportBlock(os.str() + dossier_);
}

void
System::auditCoherence() const
{
    flAssert(quiesced(), "coherence audit requires a quiesced system");

    for (std::uint32_t i = 0; i < config_.num_cores; ++i) {
        l1s_[i]->forEachBlock([&](const mem::L1Block &blk) {
            const mem::L2Block *l2 =
                dirs_[bankOf(blk.block_addr)]->findBlock(blk.block_addr);
            flAssert(l2, "inclusivity: L1 ", i, " holds 0x", std::hex,
                     blk.block_addr, std::dec, " but the L2 does not");
            switch (blk.state) {
              case mem::L1State::M:
              case mem::L1State::E:
              case mem::L1State::MStale:
                flAssert(l2->owner == i, "L1 ", i, " holds 0x", std::hex,
                         blk.block_addr, std::dec, " as ",
                         l1StateName(blk.state),
                         " but the directory owner is ", l2->owner);
                flAssert(!l2->hasSharers(),
                         "owned block 0x", std::hex, blk.block_addr,
                         std::dec, " also has sharers");
                break;
              case mem::L1State::S: {
                flAssert(l2->isSharer(i), "L1 ", i, " holds 0x",
                         std::hex, blk.block_addr, std::dec,
                         " as S but is not a recorded sharer");
                flAssert(!l2->hasOwner(), "shared block 0x", std::hex,
                         blk.block_addr, std::dec, " also has an owner");
                // Shared copies are clean: data must match the L2.
                flAssert(blk.data == l2->data,
                         "S copy of 0x", std::hex, blk.block_addr,
                         std::dec, " in L1 ", i,
                         " differs from the L2 data");
                break;
              }
              case mem::L1State::I:
                panic("invalid block reported as valid");
            }
        });
    }

    // Directory bookkeeping points at real copies.
    for (const auto &d : dirs_)
    d->forEachBlock([&](const mem::L2Block &l2) {
        if (l2.hasOwner()) {
            const mem::L1Block *blk =
                l1s_.at(l2.owner)->findBlock(l2.block_addr);
            flAssert(blk && blk->valid &&
                     blk->state != mem::L1State::S,
                     "directory owner ", l2.owner, " of 0x", std::hex,
                     l2.block_addr, std::dec,
                     " does not hold the block exclusively");
        }
        for (std::uint64_t rest = l2.sharers; rest != 0;
             rest &= rest - 1) {
            const auto c =
                static_cast<std::uint32_t>(std::countr_zero(rest));
            const mem::L1Block *blk =
                l1s_.at(c)->findBlock(l2.block_addr);
            flAssert(blk && blk->valid &&
                     blk->state == mem::L1State::S,
                     "recorded sharer ", c, " of 0x", std::hex,
                     l2.block_addr, std::dec,
                     " does not hold the block in S");
        }
    });
}

} // namespace fenceless::harness
