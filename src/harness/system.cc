#include "harness/system.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>

#include "base/logging.hh"
#include "base/provenance.hh"
#include "base/stats_json.hh"
#include "base/trace.hh"
#include "harness/report.hh"
#include "isa/interp.hh"
#include "sim/blackbox.hh"

namespace fenceless::harness
{

std::uint32_t
System::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>(addr / config_.l2.block_size)
           & (config_.dir_banks - 1);
}

std::string
System::dirBankName(std::uint32_t b) const
{
    return config_.dir_banks == 1 ? std::string("l2dir")
                                  : "l2dir.bank" + std::to_string(b);
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
        tracer.registerComponent(dirBankName(b));
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
            ctx_, dirBankName(b), bank_params,
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

    const Tick now = ctx_.curTick();
    drv_ = DriverState{};
    drv_.next_snapshot = config_.stats_interval > 0
                             ? now + config_.stats_interval
                             : max_tick;
    if (watchdog_) {
        watchdog_->prime(now);
        drv_.next_wd = now + watchdog_->interval();
    }
    drv_.boundary = nextDeadline(halted_ == config_.num_cores);

    // If a simulator invariant trips mid-run, dump this system's
    // evidence before aborting.  The hook is thread-local, so sweep
    // workers guard their own systems.
    auto prev = setPanicHook([this] {
        std::ostringstream os;
        os << "=== incident dump (panic) ===\n";
        writeArchState(os, *this);
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

    network_->foldLinkStats();
    if (config_.tail_sample > 0)
        finalizeTailTrace();
    return !hung_ && halted_ == config_.num_cores;
}

void
System::coordinatorStep()
{
    const Tick b = drv_.boundary;

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
    network_->foldLinkStats();
    std::ostringstream os;
    statistics::printGroupsJson(os, ctx_.stats);
    snapshots_.push_back(StatSnapshot{tick, os.str()});
}

std::string
System::provenanceJson() const
{
    std::string p = provenance::jsonObject();
    std::ostringstream extra;
    extra << ", \"sim_mode\": {\"dir_banks\": " << config_.dir_banks
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

prof::Profile
System::profile(const std::string &scope) const
{
    return ctx_.profiler.snapshot(scope);
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
    writeStallDossier(dossier, *this, report.fire_tick);
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
