#include "mem/l1_cache.hh"

#include <algorithm>

#include <sstream>

#include "base/logging.hh"
#include "base/trace.hh"

namespace fenceless::mem
{

const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::I: return "I";
      case L1State::S: return "S";
      case L1State::E: return "E";
      case L1State::M: return "M";
      case L1State::MStale: return "MStale";
    }
    return "?";
}

L1Cache::L1Cache(sim::SimContext &ctx, const std::string &name,
                 const Params &params, CoreId core_id,
                 const DirectoryMap &dirmap, Network &network)
    : SimObject(ctx, name), params_(params), core_id_(core_id),
      node_id_(core_id), dirmap_(dirmap), network_(network),
      prof_(ctx.profiler.ifEnabled()),
      rtrace_(ctx.spans.ifEnabled()),
      array_(params.size, params.assoc, params.block_size),
      stat_loads_(statGroup().addScalar("loads", "load accesses")),
      stat_stores_(statGroup().addScalar("stores", "store accesses")),
      stat_amos_(statGroup().addScalar("amos", "atomic accesses")),
      stat_hits_(statGroup().addScalar("hits", "accesses hitting with "
                                       "sufficient permission")),
      stat_misses_(statGroup().addScalar("misses", "accesses taking the "
                                         "miss path")),
      stat_evictions_(statGroup().addScalar("evictions",
                                            "blocks evicted")),
      stat_wb_clean_(statGroup().addScalar("wb_clean", "pre-speculation "
                                           "clean writebacks (WbClean)")),
      stat_invs_(statGroup().addScalar("invs_received",
                                       "invalidations received")),
      stat_fwds_(statGroup().addScalar("fwds_received",
                                       "forwarded probes received")),
      stat_spec_conflicts_(statGroup().addScalar("spec_conflicts",
          "remote probes conflicting with live speculation tags")),
      stat_overflow_waits_(statGroup().addScalar("spec_overflow_waits",
          "fills blocked because the set was full of speculative "
          "blocks")),
      stat_fill_retries_(statGroup().addScalar("fill_retries",
          "buffered fills discarded by a probe and re-requested")),
      stat_prefetches_(statGroup().addScalar("prefetches",
          "exclusive-ownership prefetches from the store buffer")),
      stat_miss_latency_(statGroup().addDistribution("miss_latency",
          "cycles from miss issue to fill install")),
      stat_miss_fill_wait_(statGroup().addDistribution("miss_fill_wait",
          "cycles a buffered fill waited for an evictable way"))
{
    network_.registerEndpoint(node_id_, this);
}

// ---------------------------------------------------------------------
// speculation tags
// ---------------------------------------------------------------------

bool
L1Cache::srValid(const L1Block &blk) const
{
    return spec_ && spec_->specActive() &&
           blk.sr_epoch == spec_->specEpoch();
}

bool
L1Cache::swValid(const L1Block &blk) const
{
    return spec_ && spec_->specActive() &&
           blk.sw_epoch == spec_->specEpoch();
}

void
L1Cache::markSpecRead(L1Block &blk)
{
    if (srValid(blk))
        return;
    blk.sr_epoch = spec_->specEpoch();
    sr_blocks_.push_back(blk.block_addr);
}

void
L1Cache::markSpecWritten(L1Block &blk)
{
    if (swValid(blk))
        return;
    blk.sw_epoch = spec_->specEpoch();
    sw_blocks_.push_back(blk.block_addr);
}

void
L1Cache::commitSpecWrites()
{
    for (Addr addr : sw_blocks_) {
        L1Block *blk = array_.find(addr);
        flAssert(blk && blk->valid && blk->state == L1State::M,
                 name(), ": commit lost a speculatively-written block 0x",
                 std::hex, addr);
        // The speculative data becomes architectural: the block is now an
        // ordinary dirty M block (the L2 keeps the stale pre-spec copy
        // until eviction or a probe, as for any dirty block).
        blk->dirty = true;
    }
    sw_blocks_.clear();
    sr_blocks_.clear();
}

void
L1Cache::rollbackSpecWrites()
{
    for (Addr addr : sw_blocks_) {
        L1Block *blk = array_.find(addr);
        flAssert(blk && blk->valid && blk->state == L1State::M,
                 name(), ": rollback lost a speculatively-written block "
                 "0x", std::hex, addr);
        // Discard the speculative data.  The directory still records us
        // as owner and the inclusive L2 holds the pre-speculation copy
        // (guaranteed by clean-before-spec-write), so the block becomes
        // MStale: owned, data invalid.
        blk->state = L1State::MStale;
        blk->dirty = false;
    }
    sw_blocks_.clear();
    sr_blocks_.clear();
}

void
L1Cache::specCleared()
{
    // Deliberately asynchronous: this is called from deep inside
    // rollback paths that can themselves run inside a probe handler
    // (specConflict during handleFwd/handleInv) or inside
    // tryCompleteFill (specOverflow).  Retrying fills synchronously
    // there would evict -- and possibly reuse -- the very block the
    // caller still holds a pointer to.
    if (retry_scheduled_)
        return;
    retry_scheduled_ = true;
    sim::scheduleOneShot(eventq(), curTick() + 1, [this] {
        retry_scheduled_ = false;
        retryPendingFills();
    });
}

void
L1Cache::commitQueuedSpecRequests(std::uint32_t epoch)
{
    for (auto &[addr, mshr] : mshrs_) {
        for (auto &req : mshr.waiting) {
            if (req.spec && req.spec_epoch == epoch) {
                req.spec = false;
                req.spec_epoch = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------
// request path
// ---------------------------------------------------------------------

void
L1Cache::access(MemRequest req)
{
    const Addr block_addr = array_.blockAlign(req.addr);
    flAssert(array_.blockAlign(req.addr + req.size - 1) == block_addr,
             name(), ": access crosses a block boundary @0x", std::hex,
             req.addr);
    // Checked here, not when the response arrives cycles later, so a
    // malformed request fails at the call that issued it.
    flAssert(req.done_fn, name(), ": request without a completion");
    flAssert(!req.isAmo() || req.amo_fn,
             name(), ": AMO request without an AMO function");

    switch (req.op) {
      case MemOp::Load: ++stat_loads_; break;
      case MemOp::Store: ++stat_stores_; break;
      case MemOp::Amo: ++stat_amos_; break;
      case MemOp::PrefetchEx: ++stat_prefetches_; break;
    }

    // Queue behind an outstanding miss to the same block.  The map
    // lookup is skipped entirely in the common no-outstanding-miss case.
    if (!mshrs_.empty()) {
        auto it = mshrs_.find(block_addr);
        if (it != mshrs_.end()) {
            if (rtrace_ && it->second.traced) {
                // Coalesced waiter: flagged, not on the tiled path --
                // span assembly turns it into its own L1Queue span.
                rtrace_->record(it->second.req_id, curTick(),
                                reqtrace::Stage::L1Queue, traceId(),
                                block_addr,
                                static_cast<std::uint32_t>(req.pc),
                                reqtrace::span_flag_waiter);
            }
            it->second.waiting.push_back(std::move(req));
            return;
        }
    }

    L1Block *blk = array_.find(req.addr);
    const bool present =
        blk && blk->valid && blk->state != L1State::MStale;

    if (req.isLoad()) {
        if (present) {
            ++stat_hits_;
            array_.touch(*blk);
            performLoad(*blk, req);
            return;
        }
        ++stat_misses_;
        handleMiss(std::move(req), blk && blk->valid
                   /* MStale refetches with GetM to keep one dir case */);
        return;
    }

    // Store, AMO or ownership prefetch: needs M (or upgradable E).
    if (present &&
        (blk->state == L1State::M || blk->state == L1State::E)) {
        ++stat_hits_;
        array_.touch(*blk);
        if (req.isPrefetch())
            respond(req, 0);
        else
            performWrite(*blk, req);
        return;
    }
    ++stat_misses_;
    handleMiss(std::move(req), true);
}

void
L1Cache::handleMiss(MemRequest req, bool want_m)
{
    const Addr block_addr = array_.blockAlign(req.addr);
    FL_TRACE(trace::Flag::L1, *this, "miss 0x", std::hex, block_addr,
             (want_m ? " (GetM)" : " (GetS)"));
    flAssert(mshrs_.size() < params_.num_mshrs, name(),
             ": out of MSHRs (", params_.num_mshrs, ") - the core model "
             "should bound outstanding misses");

    Mshr &mshr = mshrs_[block_addr];
    mshr.block_addr = block_addr;
    mshr.want_m = want_m;
    mshr.miss_start = curTick();
    // Request ids are minted per L1 (node in the high bits, local
    // counter below) rather than from the shard-shared trace sink, so
    // an id depends only on this cache's own miss sequence -- identical
    // however the system is sharded across host threads.
    mshr.req_id =
        (static_cast<std::uint64_t>(node_id_ + 1) << 40) | ++last_req_id_;
    if (rtrace_ && rtrace_->sampled(mshr.req_id)) {
        // Span sampling is a pure function of the id, so the directory
        // bank re-derives this decision from msg.req_id with no state.
        mshr.traced = true;
        mshr.pc = req.pc;
        rtrace_->record(mshr.req_id, curTick(),
                        reqtrace::Stage::ReqNet, traceId(), block_addr,
                        static_cast<std::uint32_t>(req.pc));
    }
    mshr.waiting.push_back(std::move(req));
    FL_TEVENT(*this, trace::EventKind::ReqIssue, mshr.req_id,
              block_addr);
    sendToDir(want_m ? MsgType::GetM : MsgType::GetS, block_addr,
              nullptr, mshr.req_id);
}

bool
L1Cache::specLive(const MemRequest &req) const
{
    return req.spec && spec_ && spec_->specActive() &&
           req.spec_epoch == spec_->specEpoch();
}

void
L1Cache::performLoad(L1Block &blk, MemRequest &req)
{
    if (specLive(req))
        markSpecRead(blk);
    const Addr offset = req.addr - blk.block_addr;
    if (prof_) {
        prof_->touchLine(core_id_, blk.block_addr,
                         static_cast<unsigned>(offset), req.size);
    }
    respond(req, blk.readInt(offset, req.size));
}

void
L1Cache::performWrite(L1Block &blk, MemRequest &req)
{
    // An ownership prefetch only wanted the M-state fill; the data is
    // untouched and no speculation tag is set.
    if (req.isPrefetch()) {
        respond(req, 0);
        return;
    }

    // A speculative access whose epoch was rolled back while it was
    // queued in an MSHR must not modify anything: the squashed core has
    // already resumed from its checkpoint.  Complete it as a no-op (the
    // store buffer / core ignore stale completions).
    if (req.spec && !specLive(req)) {
        respond(req, 0);
        return;
    }

    flAssert(blk.state == L1State::M || blk.state == L1State::E,
             name(), ": write to block in state ", l1StateName(blk.state));
    blk.state = L1State::M; // silent E->M upgrade

    if (prof_) {
        prof_->touchLine(core_id_, blk.block_addr,
                         static_cast<unsigned>(req.addr - blk.block_addr),
                         req.size);
    }

    if (req.spec && blk.dirty) {
        // Clean-before-speculative-write: push the pre-speculation data
        // to the L2 so rollback can recover it.  FIFO ordering on our
        // channel to the directory guarantees it lands before any later
        // FwdNoDataAck we might send for this block.
        sendToDir(MsgType::WbClean, blk.block_addr, blk.data.data());
        blk.dirty = false;
        ++stat_wb_clean_;
    }

    const Addr offset = req.addr - blk.block_addr;
    std::uint64_t old_value = 0;
    if (req.isAmo()) {
        old_value = blk.readInt(offset, req.size);
        blk.writeInt(offset, req.size, req.applyAmo(old_value));
    } else {
        blk.writeInt(offset, req.size, req.store_data);
    }

    if (req.spec) {
        if (req.isAmo())
            markSpecRead(blk);
        markSpecWritten(blk);
    } else {
        blk.dirty = true;
    }
    respond(req, old_value);
}

void
L1Cache::respond(const MemRequest &req, std::uint64_t value)
{
    // The bound completion slot makes the delivery one-shot a POD
    // closure -- it fits the pool node's inline storage and is
    // trivially destructible, so an L1 hit allocates nothing at all.
    struct Deliver
    {
        MemRequest::DoneFn fn;
        void *obj;
        std::uint64_t ctx;
        std::uint64_t value;
        void operator()() const { fn(obj, ctx, value); }
    };
    sim::scheduleOneShot(eventq(), curTick() + params_.hit_latency,
                         Deliver{req.done_fn, req.done_obj, req.done_ctx,
                                 value});
}

// ---------------------------------------------------------------------
// fills
// ---------------------------------------------------------------------

void
L1Cache::handleData(const Msg &msg)
{
    auto it = mshrs_.find(msg.block_addr);
    flAssert(it != mshrs_.end(), name(), ": data for 0x", std::hex,
             msg.block_addr, std::dec, " with no MSHR");
    Mshr &mshr = it->second;
    flAssert(!mshr.fill_pending, name(), ": duplicate fill");
    mshr.fill = msg;
    mshr.fill_pending = true;
    mshr.fill_arrival = curTick();
    if (rtrace_ && mshr.traced) {
        rtrace_->record(mshr.req_id, curTick(),
                        reqtrace::Stage::FillWait, traceId(),
                        mshr.block_addr);
    }
    tryCompleteFill(mshr);
}

void
L1Cache::tryCompleteFill(Mshr &mshr)
{
    flAssert(mshr.fill_pending, "tryCompleteFill without buffered fill");
    const Msg &msg = mshr.fill;

    L1Block *blk = array_.find(mshr.block_addr);
    if (!blk || !blk->valid) {
        blk = array_.findFreeWay(mshr.block_addr);
        if (!blk) {
            // Pick a victim.  Blocks carrying live speculation tags
            // are pinned: evicting one would lose the ability to
            // detect conflicts.  Blocks with an outstanding same-block
            // miss (e.g. an S copy awaiting its GetM upgrade) are also
            // pinned: evicting one would let the stale writeback-buffer
            // entry answer probes meant for the re-acquired copy.  The
            // spec controller decides whether to resolve a tag overflow
            // by rolling back or by making the fill wait.
            auto evictable = [this](const L1Block &b) {
                return !srValid(b) && !swValid(b) &&
                       !mshrs_.count(b.block_addr);
            };
            auto mshr_free = [this](const L1Block &b) {
                return !mshrs_.count(b.block_addr);
            };
            L1Block *victim = array_.findVictim(mshr.block_addr,
                                                evictable);
            if (!victim && array_.findVictim(mshr.block_addr,
                                             mshr_free)) {
                // Blocked purely by live speculation tags.
                flAssert(spec_, name(), ": tagged blocks with no "
                         "speculation controller");
                // If the blocked fill serves any store or AMO, the
                // epoch's commit may depend on it (pre-epoch stores
                // always do; ordered speculative stores can too):
                // waiting would deadlock, so the controller must roll
                // back.  A pure load fill is safe to park: the blocked
                // core stops producing work, the buffer drains, the
                // epoch ends, and specCleared() retries the fill.
                bool needed = false;
                for (const auto &r : mshr.waiting) {
                    if (!r.isLoad()) {
                        needed = true;
                        break;
                    }
                }
                if (spec_->specOverflow(mshr.block_addr, needed)) {
                    // Controller rolled back; tags are clear now.
                    victim = array_.findVictim(mshr.block_addr,
                                               evictable);
                } else {
                    ++stat_overflow_waits_;
                }
            }
            if (!victim) {
                // Every candidate way is pinned (by tags awaiting the
                // epoch's end or by outstanding same-block misses).
                // Park the fill; it is retried when speculation clears
                // or when any miss completes.
                mshr.fill_blocked = true;
                return;
            }
            evict(*victim);
            blk = victim; // evict() leaves the way invalid
        }
        blk->block_addr = mshr.block_addr;
        blk->valid = true;
        blk->sr_epoch = 0;
        blk->sw_epoch = 0;
    }

    flAssert(msg.data.size() == array_.blockSize(),
             name(), ": fill with wrong payload size");
    blk->data = msg.data;
    blk->dirty = false;
    switch (msg.type) {
      case MsgType::DataS: blk->state = L1State::S; break;
      case MsgType::DataE: blk->state = L1State::E; break;
      case MsgType::DataM: blk->state = L1State::M; break;
      default:
        panic(name(), ": bad fill message ", msgTypeName(msg.type));
    }
    array_.touch(*blk);

    stat_miss_latency_.sample(
        static_cast<double>(curTick() - mshr.miss_start));
    stat_miss_fill_wait_.sample(
        static_cast<double>(curTick() - mshr.fill_arrival));
    FL_TEVENT(*this, trace::EventKind::ReqFill, mshr.req_id,
              mshr.block_addr);
    if (rtrace_ && mshr.traced) {
        rtrace_->record(mshr.req_id, curTick(), reqtrace::Stage::Done,
                        traceId(), mshr.block_addr,
                        static_cast<std::uint32_t>(
                            mshr.waiting.size() - 1));
    }

    // Retire the MSHR, then replay the queued requests in order.  A
    // replayed write may re-miss for an upgrade and allocate a fresh
    // MSHR for the same block; later replays then queue behind it.
    std::deque<MemRequest> waiting = std::move(mshr.waiting);
    mshrs_.erase(mshr.block_addr);
    for (auto &req : waiting)
        access(std::move(req));

    // A completed miss unpins its block: fills parked on a full set may
    // now have a victim (deferred: we may be deep inside a fill chain).
    specCleared();
}

void
L1Cache::retryPendingFills()
{
    // A retried fill completes and erases its MSHR (and its replays may
    // allocate new ones), so collect the candidates before touching any.
    std::vector<Addr> to_retry;
    for (const auto &[addr, mshr] : mshrs_) {
        if (mshr.fill_pending && mshr.fill_blocked)
            to_retry.push_back(addr);
    }
    for (Addr addr : to_retry) {
        auto it = mshrs_.find(addr);
        if (it == mshrs_.end() || !it->second.fill_pending)
            continue;
        it->second.fill_blocked = false;
        ++stat_fill_retries_;
        tryCompleteFill(it->second);
    }
}

// ---------------------------------------------------------------------
// evictions
// ---------------------------------------------------------------------

void
L1Cache::evict(L1Block &victim)
{
    flAssert(!srValid(victim) && !swValid(victim),
             name(), ": evicting a block with live speculation tags");
    FL_TRACE(trace::Flag::L1, *this, "evict 0x", std::hex,
             victim.block_addr, " from ", l1StateName(victim.state));
    ++stat_evictions_;

    WbEntry wb;
    wb.block_addr = victim.block_addr;
    switch (victim.state) {
      case L1State::M:
      case L1State::E:
        // Owner eviction always carries data: an E block may have been
        // silently upgraded, and the directory cannot tell.
        wb.state = WbEntry::State::MIA;
        wb.has_data = true;
        wb.data.assign(victim.data.data(),
                       victim.data.data() + victim.data.size());
        sendToDir(MsgType::PutM, victim.block_addr, victim.data.data());
        break;
      case L1State::MStale:
        wb.state = WbEntry::State::MIA;
        wb.has_data = false;
        sendToDir(MsgType::PutNoData, victim.block_addr);
        break;
      case L1State::S:
        wb.state = WbEntry::State::SIA;
        wb.has_data = false;
        sendToDir(MsgType::PutS, victim.block_addr);
        break;
      case L1State::I:
        panic(name(), ": evicting an invalid block");
    }
    wb_buffer_.push_back(std::move(wb));

    victim.valid = false;
    victim.state = L1State::I;
    victim.dirty = false;
}

L1Cache::WbEntry *
L1Cache::findWb(Addr block_addr)
{
    for (auto &wb : wb_buffer_) {
        if (wb.block_addr == block_addr)
            return &wb;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// probes and acks
// ---------------------------------------------------------------------

void
L1Cache::receiveMsg(const Msg &msg)
{
    FL_TRACE(trace::Flag::L1, *this, "recv ", msg.toString());
    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
        handleData(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::FwdGetS:
      case MsgType::FwdGetM:
      case MsgType::Recall:
        handleFwd(msg);
        break;
      case MsgType::PutAck:
        handlePutAck(msg);
        break;
      default:
        panic(name(), ": unexpected message ", msg.toString());
    }
}

void
L1Cache::checkSpecConflict(L1Block &blk, bool remote_write)
{
    const bool sr = srValid(blk);
    const bool sw = swValid(blk);
    if (!sr && !sw)
        return;
    // A remote read only conflicts with a speculative *write* (it would
    // observe speculative data); a remote write conflicts with both.
    if (!remote_write && !sw)
        return;
    ++stat_spec_conflicts_;
    // The controller rolls back synchronously: SW blocks become MStale,
    // all tags are flash-invalidated, the core restores its checkpoint.
    spec_->specConflict(blk.block_addr, remote_write, sw);
    flAssert(!srValid(blk) && !swValid(blk),
             name(), ": speculation tags survived a conflict rollback");
}

void
L1Cache::handleInv(const Msg &msg)
{
    ++stat_invs_;
    if (prof_)
        prof_->lineInvalidated(msg.block_addr);

    // Writeback-buffer entry (PutS raced with the invalidation)?
    if (WbEntry *wb = findWb(msg.block_addr)) {
        const L1Block *live = array_.find(msg.block_addr);
        flAssert(!live || !live->valid, name(),
                 ": Inv matched a writeback entry while a valid array "
                 "copy of 0x", std::hex, msg.block_addr, std::dec,
                 " exists");
        flAssert(wb->state != WbEntry::State::MIA,
                 name(), ": Inv for a block being written back as owner");
        wb->state = WbEntry::State::IIA;
        sendToDir(MsgType::InvAck, msg.block_addr);
        return;
    }

    // Buffered fill that has not been installed yet (the directory
    // granted us the block and immediately served a conflicting writer)?
    auto it = mshrs_.find(msg.block_addr);
    if (it != mshrs_.end() && it->second.fill_pending) {
        Mshr &mshr = it->second;
        ++stat_fill_retries_;
        mshr.fill_pending = false;
        mshr.fill_blocked = false;
        sendToDir(MsgType::InvAck, msg.block_addr);
        // Re-request; the waiting accesses stay queued.
        if (rtrace_ && mshr.traced) {
            rtrace_->record(mshr.req_id, curTick(),
                            reqtrace::Stage::ReqNet, traceId(),
                            msg.block_addr,
                            static_cast<std::uint32_t>(mshr.pc),
                            reqtrace::span_flag_retry);
        }
        sendToDir(mshr.want_m ? MsgType::GetM : MsgType::GetS,
                  msg.block_addr, nullptr, mshr.req_id);
        return;
    }

    L1Block *blk = array_.find(msg.block_addr);
    if (!blk || !blk->valid) {
        // Possible only transiently (e.g. we were invalidated while a
        // re-request is queued at the directory); ack and move on.
        sendToDir(MsgType::InvAck, msg.block_addr);
        return;
    }

    flAssert(blk->state == L1State::S, name(), ": Inv in state ",
             l1StateName(blk->state), " for 0x", std::hex,
             msg.block_addr);
    checkSpecConflict(*blk, true);
    blk->valid = false;
    blk->state = L1State::I;
    sendToDir(MsgType::InvAck, msg.block_addr);
}

void
L1Cache::handleFwd(const Msg &msg)
{
    ++stat_fwds_;
    const bool remote_write = msg.type != MsgType::FwdGetS;

    // Writeback buffer: the probe raced with our PutM/PutNoData.
    if (WbEntry *wb = findWb(msg.block_addr)) {
        // A writeback-buffer entry and a valid array copy must never
        // coexist (evictions never target blocks with outstanding
        // same-block misses, and channel FIFO order acks the Put
        // before any re-acquired fill arrives) -- otherwise this probe
        // could be answered from the wrong copy.
        const L1Block *live = array_.find(msg.block_addr);
        flAssert(!live || !live->valid, name(),
                 ": probe matched a writeback entry while a valid "
                 "array copy of 0x", std::hex, msg.block_addr,
                 std::dec, " exists");
        if (wb->state == WbEntry::State::MIA && wb->has_data) {
            sendToDir(MsgType::FwdDataAck, msg.block_addr,
                      wb->data.data());
        } else {
            sendToDir(MsgType::FwdNoDataAck, msg.block_addr);
        }
        wb->state = WbEntry::State::IIA;
        wb->has_data = false;
        return;
    }

    // Buffered fill not yet installed: hand the data straight back and
    // re-request.
    auto it = mshrs_.find(msg.block_addr);
    if (it != mshrs_.end() && it->second.fill_pending) {
        Mshr &mshr = it->second;
        ++stat_fill_retries_;
        sendToDir(MsgType::FwdDataAck, msg.block_addr,
                  mshr.fill.data.data());
        mshr.fill_pending = false;
        mshr.fill_blocked = false;
        if (rtrace_ && mshr.traced) {
            rtrace_->record(mshr.req_id, curTick(),
                            reqtrace::Stage::ReqNet, traceId(),
                            msg.block_addr,
                            static_cast<std::uint32_t>(mshr.pc),
                            reqtrace::span_flag_retry);
        }
        sendToDir(mshr.want_m ? MsgType::GetM : MsgType::GetS,
                  msg.block_addr, nullptr, mshr.req_id);
        return;
    }

    L1Block *blk = array_.find(msg.block_addr);
    flAssert(blk && blk->valid, name(), ": ", msgTypeName(msg.type),
             " for a block we do not hold (0x", std::hex, msg.block_addr,
             std::dec, ")");

    checkSpecConflict(*blk, remote_write);

    if (blk->state == L1State::MStale) {
        // Rolled-back speculative data (either before this probe or just
        // now): the directory's L2 copy is the authoritative
        // pre-speculation value.
        sendToDir(MsgType::FwdNoDataAck, msg.block_addr);
        blk->valid = false;
        blk->state = L1State::I;
        return;
    }

    flAssert(blk->state == L1State::M || blk->state == L1State::E,
             name(), ": ", msgTypeName(msg.type), " in state ",
             l1StateName(blk->state));

    sendToDir(MsgType::FwdDataAck, msg.block_addr, blk->data.data());
    if (msg.type == MsgType::FwdGetS) {
        blk->state = L1State::S;
        blk->dirty = false; // directory updates the L2 copy
    } else {
        blk->valid = false;
        blk->state = L1State::I;
        blk->dirty = false;
    }
}

void
L1Cache::handlePutAck(const Msg &msg)
{
    for (auto it = wb_buffer_.begin(); it != wb_buffer_.end(); ++it) {
        if (it->block_addr == msg.block_addr) {
            wb_buffer_.erase(it);
            return;
        }
    }
    panic(name(), ": PutAck with no writeback-buffer entry for 0x",
          std::hex, msg.block_addr);
}

// ---------------------------------------------------------------------
// misc
// ---------------------------------------------------------------------

void
L1Cache::sendToDir(MsgType type, Addr block_addr,
                   const std::uint8_t *data,
                   std::uint64_t req_id)
{
    Msg msg;
    msg.type = type;
    msg.src = node_id_;
    msg.dst = dirmap_.nodeFor(block_addr);
    msg.block_addr = block_addr;
    msg.req_id = req_id;
    if (data)
        msg.data.assign(data, data + array_.blockSize());
    network_.send(std::move(msg));
}

bool
L1Cache::debugRead(Addr addr, unsigned size, std::uint64_t &out) const
{
    const L1Block *blk = array_.find(addr);
    if (!blk || !blk->valid)
        return false;
    if (blk->state != L1State::M && blk->state != L1State::E)
        return false;
    out = blk->readInt(addr - blk->block_addr, size);
    return true;
}

} // namespace fenceless::mem
