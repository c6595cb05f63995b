/**
 * @file
 * The in-order timing core.
 *
 * One instruction per cycle when nothing stalls.  Loads block until the
 * L1 responds (or forward from the store buffer); stores retire into the
 * store buffer; atomics execute at the L1 after their ordering
 * requirement is met; fences behave per the consistency model.
 *
 * Every point where the baseline model would stall for *ordering* (an SC
 * load with buffered stores, a draining fence, an atomic's buffer drain)
 * is first offered to the speculation controller, which may let the core
 * proceed speculatively instead.  The controller can snapshot and
 * restore the core's architectural state; in-flight memory responses
 * from before a restore are ignored via a squash generation counter.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "cpu/consistency.hh"
#include "cpu/store_buffer.hh"
#include "isa/decoded.hh"
#include "isa/program.hh"
#include "mem/l1_cache.hh"
#include "sim/sim_object.hh"

namespace fenceless::cpu
{

/** Why the core is not executing this cycle (for stall accounting). */
enum class StallReason
{
    ScLoadOrder, //!< SC: load waiting for the store buffer to drain
    FenceDrain,  //!< full fence waiting for the store buffer to drain
    AmoOrder,    //!< atomic waiting for its ordering requirement
    AmoData,     //!< atomic waiting for an overlapping buffered store
    SbFull,      //!< store waiting for a store-buffer slot
    LoadAccess,  //!< load waiting for the memory system
    AmoAccess,   //!< atomic executing at the L1
    FwdConflict, //!< load partially overlapping a buffered store
    HaltDrain,   //!< halt waiting for drain / speculation exit
    SpecLimit,   //!< per-store-granularity speculative storage exhausted
    NumReasons,
};

const char *stallReasonName(StallReason r);

/**
 * The core's view of the speculation controller.  A null controller
 * means baseline (no speculation): every ordering point stalls.
 */
class SpecInterface
{
  public:
    /** The kind of ordering point the core is about to stall on. */
    enum class OrderPoint
    {
        ScLoad,
        FullFence,
        Amo,
    };

    virtual ~SpecInterface() = default;

    /**
     * Called when an ordering requirement is unsatisfied.  If the
     * controller is already speculating it records the crossing
     * (advancing its commit watermark) and returns true; otherwise it
     * may begin an epoch (checkpointing the core) and return true, or
     * return false to make the core stall as in the baseline.
     */
    virtual bool shouldSpeculate(OrderPoint point) = 0;

    /** @return true while the core runs inside a speculative epoch. */
    virtual bool inSpec() const = 0;

    /** @return the current epoch id (tags accesses). */
    virtual std::uint32_t epoch() const = 0;

    /**
     * The core reached Halt while speculating: commit as soon as the
     * commit condition allows, do not open another epoch, then invoke
     * @p done.  A rollback in between cancels the request (the core
     * re-executes and will re-request).
     */
    virtual void requestStop(std::function<void()> done) = 0;

    /**
     * Reserve speculative-storage capacity for one access of the
     * current epoch.  Always succeeds at block granularity (the tags
     * live in the cache); at per-store granularity it fails once the
     * bounded speculative store queue / load CAM is full, and the core
     * must stall until the epoch ends.
     */
    virtual bool reserveSpecSlot(bool is_store) = 0;

    /** Run @p cb once when the current epoch commits or rolls back. */
    virtual void whenSpecExit(std::function<void()> cb) = 0;
};

class Core : public sim::SimObject
{
  public:
    struct Params
    {
        ConsistencyModel model = ConsistencyModel::TSO;
        unsigned sb_size = 16;
        unsigned sb_max_inflight = 4;    //!< relaxed-drain overlap
        unsigned sb_prefetch_depth = 4;  //!< ownership-prefetch window
        Cycles pause_cycles = 1;
    };

    Core(sim::SimContext &ctx, const std::string &name,
         const Params &params, CoreId core_id, const isa::Program &prog,
         mem::L1Cache &l1, std::uint32_t num_cores);

    /** Deschedules the tick event (the queue may outlive the core). */
    ~Core() override;

    void setSpec(SpecInterface *spec) { spec_ = spec; }

    /** Initialise architectural state and schedule the first cycle. */
    void reset();

    bool halted() const { return halted_; }
    void setHaltCallback(std::function<void()> cb)
    {
        halt_cb_ = std::move(cb);
    }

    CoreId coreId() const { return core_id_; }
    ConsistencyModel model() const { return params_.model; }
    StoreBuffer &storeBuffer() { return sb_; }
    const StoreBuffer &storeBuffer() const { return sb_; }
    mem::L1Cache &l1() { return l1_; }
    std::uint64_t instret() const { return instret_; }

    /** Current program counter (instruction index), for debugging. */
    std::uint64_t pc() const { return pc_; }

    std::uint64_t
    reg(isa::RegId r) const
    {
        return r == 0 ? 0 : regs_[r];
    }

    // --- speculation-controller API -------------------------------------

    /** A register-file checkpoint. */
    struct ArchSnapshot
    {
        std::array<std::uint64_t, isa::num_regs> regs;
        std::uint64_t pc;
        std::uint64_t instret;
    };

    ArchSnapshot snapshot() const;

    // --- stall-dossier inspection ---------------------------------------
    // Read-only views of why the core is not running, walked at dossier
    // time by harness::buildWaitGraph.  They cost nothing on
    // the execution path: the fields below are maintained anyway for
    // stall accounting and squash handling.

    /** What the single outstanding memory access is, if any. */
    enum class PendingKind : std::uint8_t { None, Load, Amo };

    /** @return true if the core is asleep (not halted, no tick queued). */
    bool idle() const { return !halted_ && !tick_event_.scheduled(); }

    /**
     * Why the core is asleep.  Pending memory accesses report their
     * access reason (LoadAccess/AmoAccess) even though the sleep was
     * entered before done_fn registration.
     */
    StallReason
    sleepReason() const
    {
        if (pending_kind_ == PendingKind::Load)
            return StallReason::LoadAccess;
        if (pending_kind_ == PendingKind::Amo)
            return StallReason::AmoAccess;
        return sleep_reason_;
    }

    Tick sleepBegin() const { return sleep_begin_; }

    /** @return true if a load/AMO is outstanding in the memory system. */
    bool hasPendingAccess() const
    {
        return pending_kind_ != PendingKind::None;
    }

    /** Target address of the outstanding access (valid when pending). */
    Addr pendingAddr() const { return pending_addr_; }

    /**
     * @return true while an atomic is executing at the L1.  A
     * checkpoint taken in that window would re-execute the (non-
     * idempotent) atomic after a rollback, so the controller must not
     * open an epoch then.
     */
    bool amoInFlight() const { return amo_in_flight_; }

    /**
     * Restore a checkpoint and resume execution next cycle.  All
     * in-flight memory responses and stall waiters become stale.
     */
    void restoreAndResume(const ArchSnapshot &snap);

  private:
    /**
     * The recurring per-cycle event.  A dedicated Event subclass (not
     * an EventFunctionWrapper) so firing a cycle is one virtual call
     * straight into tick() with no std::function indirection.
     */
    class TickEvent final : public sim::Event
    {
      public:
        TickEvent(Core &core, std::string name)
            : core_(core), name_(std::move(name))
        {}

        void process() override { core_.tick(); }
        const char *name() const override { return name_.c_str(); }

      private:
        Core &core_;
        std::string name_;
    };

    void tick();
    void scheduleTick(Cycles delay);

    /**
     * Enter an idle sleep: record @p reason and the current tick in
     * members and return the wake callback.  While asleep the core
     * schedules no tick events at all; @ref wake bulk-accounts the
     * slept cycles under the recorded reason.  Valid because the
     * in-order core has at most one wait pending per squash
     * generation, so the returned closure only needs (this, gen) and
     * fits std::function's inline storage -- entering a stall
     * allocates nothing.
     */
    std::function<void()> resumer(StallReason reason);

    /** Wake from an idle sleep (no-op if @p gen is stale). */
    void wake(std::uint64_t gen);

    /** Completion of the (single) outstanding load, via done_fn. */
    void loadResponse(std::uint64_t gen, std::uint64_t value);

    /** Completion of the (single) outstanding AMO, via done_fn. */
    void amoResponse(std::uint64_t gen, std::uint64_t old_value);

    void executeLoad(const isa::Inst &inst);
    void executeStore(const isa::Inst &inst);
    void executeAmo(const isa::Inst &inst);
    void executeFence(const isa::Inst &inst);
    void executeHalt();

    void setReg(isa::RegId r, std::uint64_t v);
    void advance(std::uint64_t next_pc, Cycles delay = 1);
    void accountStall(StallReason reason, Tick begin);

    /** Charge @p cycles at the current pc to the profiler. */
    void
    profileCycles(prof::CycleBucket bucket, std::uint64_t cycles)
    {
        prof_->addCycles(core_id_, pc_, bucket, cycles,
                         spec_ && spec_->inSpec());
    }

    Params params_;
    CoreId core_id_;
    const isa::Program &prog_;
    isa::DecodedProgram decoded_; //!< per-pc execution classes
    mem::L1Cache &l1_;
    std::uint32_t num_cores_;
    SpecInterface *spec_ = nullptr;
    prof::WasteProfiler *const prof_; //!< null when profiling is off

    StoreBuffer sb_;

    std::array<std::uint64_t, isa::num_regs> regs_{};
    std::uint64_t pc_ = 0;
    std::uint64_t instret_ = 0;
    bool halted_ = false;
    std::uint64_t squash_gen_ = 0; //!< invalidates in-flight callbacks
    bool amo_in_flight_ = false;

    // Idle-sleep bookkeeping (why and since when the core is asleep)
    // and the single outstanding memory access's writeback state.  Both
    // are single slots: the in-order core never has two waits or two
    // accesses in flight, and a squash invalidates them via squash_gen_.
    StallReason sleep_reason_ = StallReason::NumReasons;
    Tick sleep_begin_ = 0;
    isa::RegId pending_rd_ = 0;
    Tick pending_begin_ = 0;
    PendingKind pending_kind_ = PendingKind::None;
    Addr pending_addr_ = 0;

    TickEvent tick_event_;
    std::function<void()> halt_cb_;

    statistics::Scalar &stat_instructions_;
    statistics::Scalar &stat_loads_;
    statistics::Scalar &stat_stores_;
    statistics::Scalar &stat_amos_;
    statistics::Scalar &stat_fences_full_;
    statistics::Scalar &stat_fences_acq_;
    statistics::Scalar &stat_fences_rel_;
    statistics::Scalar &stat_halt_tick_;
    std::array<statistics::Scalar *,
               static_cast<std::size_t>(StallReason::NumReasons)>
        stat_stalls_{};
    statistics::Distribution &stat_load_latency_;
};

} // namespace fenceless::cpu
