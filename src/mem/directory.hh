/**
 * @file
 * The shared, inclusive L2 cache with an integrated MESI directory.
 *
 * Blocking per block: one transaction at a time; requests to a busy
 * block queue and are dispatched in arrival order.  The directory
 * collects invalidation acks and forwards owner data itself, so L1s
 * never exchange messages directly.
 *
 * The L2 is inclusive: every block cached in any L1 has an L2 entry
 * carrying the directory state (owner, sharers).  Evicting such an
 * entry requires a recall transaction that first invalidates all L1
 * copies.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>

#include "base/flat_memory.hh"
#include "mem/cache_array.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "sim/sim_object.hh"

namespace fenceless::mem
{

/** Maximum cores a directory entry can track (sharer bit vector). */
inline constexpr unsigned max_cores = 64;

struct L2Block : CacheBlockBase
{
    bool dirty = false;              //!< data differs from DRAM
    CoreId owner = invalid_core;     //!< L1 holding E/M (or MStale)
    std::uint64_t sharers = 0;       //!< bit per core holding S

    bool hasOwner() const { return owner != invalid_core; }
    bool hasSharers() const { return sharers != 0; }

    bool
    isSharer(CoreId c) const
    {
        return (sharers >> c) & 1;
    }

    void addSharer(CoreId c) { sharers |= std::uint64_t{1} << c; }
    void removeSharer(CoreId c) { sharers &= ~(std::uint64_t{1} << c); }
};

class Directory : public sim::SimObject, public MsgReceiver
{
  public:
    struct Params
    {
        std::uint64_t size = 4 * 1024 * 1024;
        unsigned assoc = 16;
        unsigned block_size = 64;
        Cycles latency = 6;       //!< tag/dir access before processing
        Cycles dram_latency = 80; //!< DRAM read latency
        Cycles dram_cycle = 4;    //!< min cycles between DRAM accesses

        /**
         * Address-interleaved banking (see mem::DirectoryMap): this
         * instance is bank `bank` of `banks` (power of two), serving
         * only the blocks whose low block-index bits equal `bank`.
         * `size` is this bank's slice of the L2, not the total; each
         * bank owns its own DRAM channel (dram_cycle spacing is per
         * bank).  The 1/0 default is the monolithic directory.
         */
        std::uint32_t banks = 1;
        std::uint32_t bank = 0;
    };

    Directory(sim::SimContext &ctx, const std::string &name,
              const Params &params, NodeId node_id, std::uint32_t num_cores,
              Network &network, FlatMemory &backing);

    void receiveMsg(const Msg &msg) override;

    // --- debug / verification ------------------------------------------

    const L2Block *findBlock(Addr addr) const { return array_.find(addr); }

    /** Functional read: L2 copy if present, else DRAM. */
    std::uint64_t debugRead(Addr addr, unsigned size) const;

    template <typename Fn>
    void
    forEachBlock(Fn fn) const
    {
        array_.forEach(fn);
    }

    /** @return true when no transaction is active or queued. */
    bool quiesced() const { return active_.empty() && total_pending_ == 0; }

    // --- stall-dossier inspection ---------------------------------------

    /**
     * Snapshot of one active transaction, decoupled from the private
     * Txn so wait graphs and dossiers can walk directory state without
     * seeing protocol internals.
     */
    struct TxnView
    {
        Addr block = 0;
        const char *phase = "?";
        MsgType req_type = MsgType::GetS;
        NodeId requester = 0;
        unsigned pending_acks = 0;
        bool is_recall = false;
        Tick start_tick = 0;
        bool has_resume = false;  //!< a blocked request re-dispatches after
        Addr resume_block = 0;    //!< its block address (Blocked/recall)
        std::uint64_t req_id = 0; //!< request-lifetime trace id
        std::size_t queued = 0;   //!< same-block requests parked behind
    };

    /** Visit every active transaction in block-address order. */
    template <typename Fn>
    void
    forEachTxn(Fn fn) const
    {
        for (const auto &[addr, txn] : active_) {
            TxnView v;
            v.block = addr;
            v.phase = phaseName(txn.phase);
            v.req_type = txn.req.type;
            v.requester = txn.req.src;
            v.pending_acks = txn.pending_acks;
            v.is_recall = txn.is_recall;
            v.start_tick = txn.start_tick;
            v.has_resume = txn.resume.has_value();
            if (txn.resume)
                v.resume_block = txn.resume->block_addr;
            v.req_id = txn.req.req_id;
            if (auto it = pending_.find(addr); it != pending_.end())
                v.queued = it->second.size();
            fn(v);
        }
    }

  private:
    struct Txn
    {
        enum class Phase : std::uint8_t
        {
            Start,    //!< scheduled, not yet processed
            Dram,     //!< waiting for DRAM fill
            Fwd,      //!< waiting for the owner's Fwd*Ack
            InvAcks,  //!< waiting for sharer InvAcks
            Blocked,  //!< waiting for a recall of an L2 victim
        };

        Msg req;                   //!< request being served
        Phase phase = Phase::Start;
        unsigned pending_acks = 0;
        bool is_recall = false;    //!< internal L2-eviction transaction
        std::optional<Msg> resume; //!< request to re-dispatch afterwards
        Tick start_tick = 0;       //!< when the txn left the queue
        unsigned dram_reads = 0;   //!< DRAM fills charged to this txn
    };

    /** A request parked behind an active same-block transaction. */
    struct QueuedReq
    {
        Tick recv_tick;
        Msg msg;
    };

    static const char *phaseName(Txn::Phase p);

    // dispatch / queueing
    void dispatch(const Msg &msg);
    void startTxn(const Msg &msg, Tick recv_tick);
    void processRequest(Addr block_addr);
    void complete(Addr block_addr);

    // request handlers (block guaranteed present in L2)
    void processGetS(Txn &txn, L2Block &blk);
    void processGetM(Txn &txn, L2Block &blk);
    void processPut(Txn &txn, L2Block &blk);

    // fills and victims
    bool ensurePresent(Txn &txn, Addr block_addr);
    void startRecall(Addr victim_addr, const Msg &blocked_req);
    void finishRecall(Txn &txn, L2Block &victim);

    // responses routed into active transactions
    void handleAck(const Msg &msg);
    void handleWbClean(const Msg &msg);

    void sendToL1(MsgType type, NodeId dst, Addr block_addr,
                  const std::uint8_t *data = nullptr,
                  std::uint64_t req_id = 0);
    void sendData(MsgType type, NodeId dst, const L2Block &blk,
                  std::uint64_t req_id = 0);

    void dramWriteback(L2Block &blk);

    Params params_;
    NodeId node_id_;
    std::uint32_t num_cores_;
    Network &network_;
    FlatMemory &backing_;
    prof::WasteProfiler *const prof_; //!< null when profiling is off

    CacheArray<L2Block> array_;
    std::map<Addr, Txn> active_;
    std::map<Addr, std::deque<QueuedReq>> pending_;
    std::size_t total_pending_ = 0;
    Tick dram_next_free_ = 0;

    statistics::Scalar &stat_gets_;
    statistics::Scalar &stat_getm_;
    statistics::Scalar &stat_puts_;
    statistics::Scalar &stat_wb_clean_;
    statistics::Scalar &stat_fwds_sent_;
    statistics::Scalar &stat_invs_sent_;
    statistics::Scalar &stat_recalls_;
    statistics::Scalar &stat_dram_reads_;
    statistics::Scalar &stat_dram_writes_;
    statistics::Distribution &stat_txn_queue_wait_;
    statistics::Distribution &stat_txn_service_;
};

} // namespace fenceless::mem
