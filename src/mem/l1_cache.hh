/**
 * @file
 * The private L1 data cache controller.
 *
 * Implements the L1 side of the directory MESI protocol plus the
 * speculation-tag machinery the fence-speculation mechanism needs:
 *
 *  - Two speculation tags per block, SR (speculatively read) and SW
 *    (speculatively written), stored as epoch ids so an entire epoch can
 *    be flash-committed or flash-discarded by bumping the controller's
 *    epoch counter.
 *  - Clean-before-speculative-write: the first speculative store to a
 *    dirty block first pushes the current (pre-speculation) data to the
 *    L2 with a WbClean message, so rollback can always recover the
 *    pre-speculation value from the inclusive L2.
 *  - Conflict detection: incoming Inv/FwdGetM on an SR or SW block, or
 *    FwdGetS/Recall on an SW block, reports a conflict through SpecHooks
 *    (which rolls the core back) before the probe is answered.
 *  - After rollback, speculatively-written blocks enter M_stale: the
 *    directory still records this L1 as owner but the local data is
 *    invalid; probes are answered with FwdNoDataAck (the directory uses
 *    its own pre-speculation copy) and local accesses refetch with GetM.
 *
 * Evictions go through a writeback buffer so the way frees immediately;
 * buffer entries remain visible to probes until the directory acks.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/mem_request.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "sim/sim_object.hh"

namespace fenceless::mem
{

/** L1 block protocol states (stable states live in the array). */
enum class L1State : std::uint8_t
{
    I,       //!< invalid
    S,       //!< shared, clean
    E,       //!< exclusive, clean
    M,       //!< modified (or exclusive after silent upgrade)
    MStale,  //!< owner per directory, local data discarded by rollback
};

const char *l1StateName(L1State s);

struct L1Block : CacheBlockBase
{
    L1State state = L1State::I;
    bool dirty = false;         //!< data differs from the L2 copy
    std::uint32_t sr_epoch = 0; //!< speculatively-read tag (epoch id)
    std::uint32_t sw_epoch = 0; //!< speculatively-written tag (epoch id)
};

class L1Cache : public sim::SimObject, public MsgReceiver
{
  public:
    struct Params
    {
        std::uint64_t size = 32 * 1024;
        unsigned assoc = 8;
        unsigned block_size = 64;
        Cycles hit_latency = 2;
        unsigned num_mshrs = 12;
    };

    L1Cache(sim::SimContext &ctx, const std::string &name,
            const Params &params, CoreId core_id,
            const DirectoryMap &dirmap, Network &network);

    /** Attach the speculation controller (nullptr = speculation off). */
    void setSpecHooks(SpecHooks *hooks) { spec_ = hooks; }

    unsigned blockSize() const { return array_.blockSize(); }
    Addr blockAlign(Addr a) const { return array_.blockAlign(a); }
    CoreId coreId() const { return core_id_; }

    // --- core-side interface -----------------------------------------

    /**
     * Present one access.  The request completes asynchronously through
     * its bound completion slot (MemRequest::done_fn), which must be set,
     * as must MemRequest::amo_fn for an AMO; requests to the same block
     * as an outstanding miss are queued behind it and replayed in order.
     */
    void access(MemRequest req);

    // --- network-side interface ----------------------------------------

    void receiveMsg(const Msg &msg) override;

    // --- speculation interface (called by the spec controller) ---------

    /** Number of distinct blocks carrying a live SR tag. */
    std::size_t numSpecReadBlocks() const { return sr_blocks_.size(); }

    /** Number of distinct blocks carrying a live SW tag. */
    std::size_t numSpecWrittenBlocks() const { return sw_blocks_.size(); }

    /**
     * Flash-commit the current epoch: speculatively-written blocks
     * become ordinarily dirty.  The caller bumps the epoch afterwards.
     */
    void commitSpecWrites();

    /**
     * Flash-discard the current epoch: speculatively-written blocks
     * become MStale (data invalid; directory keeps this L1 as owner and
     * the L2 holds the pre-speculation copy).  The caller bumps the
     * epoch afterwards.
     */
    void rollbackSpecWrites();

    /** The epoch ended: retry fills that were blocked on spec overflow. */
    void specCleared();

    /**
     * The epoch committed: speculative requests of @p epoch still queued
     * in MSHRs become ordinary accesses (a stale speculative store would
     * otherwise be dropped when replayed).
     */
    void commitQueuedSpecRequests(std::uint32_t epoch);

    // --- debug / verification ------------------------------------------

    /** @return the block holding @p addr, if cached (any state). */
    const L1Block *findBlock(Addr addr) const { return array_.find(addr); }

    /**
     * @return true if another miss can be accepted without exhausting
     * the MSHRs (keeps a margin for demand accesses).  The store
     * buffer checks this before issuing ownership prefetches.
     */
    bool
    canAcceptMiss() const
    {
        return mshrs_.size() + 2 < params_.num_mshrs;
    }

    /**
     * @return true if a store to @p addr would complete locally (block
     * held in M or E).  Used by the relaxed store buffer to drain
     * hitting stores ahead of misses.
     */
    bool
    hasWritePermission(Addr addr) const
    {
        const L1Block *blk = array_.find(addr);
        return blk && blk->valid &&
               (blk->state == L1State::M || blk->state == L1State::E);
    }

    /**
     * Functional read of the freshest value if this L1 is the owner.
     * @return true (and sets @p out) when this cache holds the block in
     *         M or E with valid data.
     */
    bool debugRead(Addr addr, unsigned size, std::uint64_t &out) const;

    /** Visit every valid block (for invariant audits). */
    template <typename Fn>
    void
    forEachBlock(Fn fn) const
    {
        array_.forEach(fn);
    }

    /** @return true when no miss or writeback is in flight. */
    bool quiesced() const { return mshrs_.empty() && wb_buffer_.empty(); }

    /** Miss status holding register (public: wait graphs walk these). */
    struct Mshr
    {
        Addr block_addr;
        bool want_m;                 //!< GetM (vs GetS) outstanding
        std::deque<MemRequest> waiting;
        bool fill_pending = false;   //!< fill buffered, no way available
        bool fill_blocked = false; //!< fill parked: no evictable way
        Msg fill;
        std::uint64_t req_id = 0;    //!< request-lifetime trace id
        Tick miss_start = 0;         //!< tick the miss was issued
        Tick fill_arrival = 0;       //!< tick the fill data arrived
        bool traced = false;         //!< sampled by the span tracer
        std::uint64_t pc = 0;        //!< first waiting request's PC
    };

    /** Visit every outstanding MSHR in block-address order. */
    template <typename Fn>
    void
    forEachMshr(Fn fn) const
    {
        for (const auto &[addr, mshr] : mshrs_)
            fn(mshr);
    }

  private:
    /** An in-flight eviction awaiting PutAck from the directory. */
    struct WbEntry
    {
        enum class State : std::uint8_t
        {
            MIA, //!< sent PutM/PutNoData as owner
            SIA, //!< sent PutS as sharer
            IIA, //!< answered a probe meanwhile; just awaiting PutAck
        };

        Addr block_addr;
        State state;
        bool has_data;
        std::vector<std::uint8_t> data;
    };

    // request path
    bool specLive(const MemRequest &req) const;
    void handleMiss(MemRequest req, bool want_m);
    void performLoad(L1Block &blk, MemRequest &req);
    void performWrite(L1Block &blk, MemRequest &req);
    void respond(const MemRequest &req, std::uint64_t value);

    // fill path
    void handleData(const Msg &msg);
    void tryCompleteFill(Mshr &mshr);
    void retryPendingFills();

    // probes
    void handleInv(const Msg &msg);
    void handleFwd(const Msg &msg);
    void handlePutAck(const Msg &msg);
    void checkSpecConflict(L1Block &blk, bool remote_write);

    // evictions
    void evict(L1Block &victim);
    WbEntry *findWb(Addr block_addr);

    // speculation tags
    bool srValid(const L1Block &blk) const;
    bool swValid(const L1Block &blk) const;
    void markSpecRead(L1Block &blk);
    void markSpecWritten(L1Block &blk);

    // messaging
    void sendToDir(MsgType type, Addr block_addr,
                   const std::uint8_t *data = nullptr,
                   std::uint64_t req_id = 0);

    Params params_;
    CoreId core_id_;
    std::uint64_t last_req_id_ = 0; //!< per-L1 request-id sequence
    NodeId node_id_;
    DirectoryMap dirmap_; //!< routes each block to its home dir bank
    Network &network_;
    SpecHooks *spec_ = nullptr;
    prof::WasteProfiler *const prof_; //!< null when profiling is off
    reqtrace::ReqTraceSink *const rtrace_; //!< null when spans are off

    CacheArray<L1Block> array_;
    std::map<Addr, Mshr> mshrs_;
    std::deque<WbEntry> wb_buffer_;
    bool retry_scheduled_ = false; //!< deferred overflow-fill retry
    std::vector<Addr> sr_blocks_; //!< blocks with live SR tags
    std::vector<Addr> sw_blocks_; //!< blocks with live SW tags

    statistics::Scalar &stat_loads_;
    statistics::Scalar &stat_stores_;
    statistics::Scalar &stat_amos_;
    statistics::Scalar &stat_hits_;
    statistics::Scalar &stat_misses_;
    statistics::Scalar &stat_evictions_;
    statistics::Scalar &stat_wb_clean_;
    statistics::Scalar &stat_invs_;
    statistics::Scalar &stat_fwds_;
    statistics::Scalar &stat_spec_conflicts_;
    statistics::Scalar &stat_overflow_waits_;
    statistics::Scalar &stat_fill_retries_;
    statistics::Scalar &stat_prefetches_;
    statistics::Distribution &stat_miss_latency_;
    statistics::Distribution &stat_miss_fill_wait_;
};

} // namespace fenceless::mem
