/**
 * @file
 * The request interface between a core (and its store buffer) and its L1.
 */

#pragma once

#include <cstdint>
#include <type_traits>

#include "base/types.hh"

namespace fenceless::mem
{

enum class MemOp : std::uint8_t
{
    Load,
    Store,
    Amo,
    PrefetchEx, //!< non-binding exclusive-ownership prefetch
};

/**
 * One memory access presented to the L1.
 *
 * The L1 completes a request asynchronously through its bound
 * completion slot: it calls the plain function pointer @ref done_fn
 * with the receiver object @ref done_obj, one word of context
 * @ref done_ctx and the loaded value (the *old* value for AMOs, unused
 * for stores).  Building the slot allocates nothing, and the L1's
 * response one-shot stays a trivially-destructible POD closure.  The
 * issuer keeps any per-request state (destination register, issue
 * tick) in the receiver object; @ref done_ctx typically carries a
 * generation or sequence number so stale responses can be recognised.
 *
 * An AMO's new value is @ref amo_fn applied to (@ref amo_sel, old,
 * @ref amo_a, @ref amo_b), which keeps the memory system independent
 * of ISA details.  L1Cache::access() refuses a request without
 * @ref done_fn, or an AMO without @ref amo_fn.
 *
 * The struct is trivially copyable (asserted below): requests are
 * passed and queued by value, so a closure member must not creep in.
 */
struct MemRequest
{
    /** Bound completion: fn(obj, ctx, loaded_value). */
    using DoneFn = void (*)(void *obj, std::uint64_t ctx,
                            std::uint64_t value);

    /** Raw AMO: new_value = fn(sel, old_value, a, b). */
    using AmoFn = std::uint64_t (*)(std::uint8_t sel,
                                    std::uint64_t old_value,
                                    std::uint64_t a, std::uint64_t b);

    MemOp op = MemOp::Load;
    Addr addr = 0;
    std::uint8_t size = 8;
    std::uint64_t store_data = 0;
    bool spec = false; //!< access belongs to a speculative epoch
    std::uint32_t spec_epoch = 0; //!< epoch the access belongs to
    /**
     * Issuing static instruction (DecodedProgram index), carried for
     * observability only: a sampled miss span symbolizes it in the
     * outlier dossier.  0 for requests with no guest PC (ownership
     * prefetches, test traffic).
     */
    std::uint64_t pc = 0;

    DoneFn done_fn = nullptr;
    void *done_obj = nullptr;
    std::uint64_t done_ctx = 0;

    AmoFn amo_fn = nullptr;
    std::uint8_t amo_sel = 0; //!< operation selector for amo_fn
    std::uint64_t amo_a = 0;  //!< first AMO operand (e.g. rs2 value)
    std::uint64_t amo_b = 0;  //!< second AMO operand (e.g. rs3 value)

    bool isLoad() const { return op == MemOp::Load; }
    bool isStore() const { return op == MemOp::Store; }
    bool isAmo() const { return op == MemOp::Amo; }
    bool isPrefetch() const { return op == MemOp::PrefetchEx; }

    /** @return true if the access needs write (M) permission. */
    bool needsWrite() const { return op != MemOp::Load; }

    /** Apply the AMO function to @p old_value. */
    std::uint64_t
    applyAmo(std::uint64_t old_value) const
    {
        return amo_fn(amo_sel, old_value, amo_a, amo_b);
    }
};

static_assert(std::is_trivially_copyable_v<MemRequest>);

/**
 * Interface the speculation controller exposes to its L1 cache.
 *
 * The L1 consults these hooks to validate speculation tags (epoch-based
 * flash clear), report remote conflicts, and negotiate evictions of
 * speculatively-marked blocks.  A null implementation means "speculation
 * disabled".
 */
class SpecHooks
{
  public:
    virtual ~SpecHooks() = default;

    /** @return true while a speculative epoch is live. */
    virtual bool specActive() const = 0;

    /** @return current epoch id; tags from other epochs are invalid. */
    virtual std::uint32_t specEpoch() const = 0;

    /**
     * A remote request conflicted with a live speculation tag.  The
     * implementation rolls the core back (synchronously).
     *
     * @param block_addr   the conflicting block
     * @param remote_write true for Inv/FwdGetM, false for FwdGetS
     * @param had_sw       the block carried a speculative-write tag
     */
    virtual void specConflict(Addr block_addr, bool remote_write,
                              bool had_sw) = 0;

    /**
     * Replacement wants to evict a block with live speculation tags.
     *
     * @param block_addr        the block the blocked fill is for
     * @param needed_for_commit true when the blocked fill serves a
     *        store/AMO of the current epoch: the epoch cannot commit
     *        until that access completes, so waiting would deadlock and
     *        the controller must roll back regardless of policy.
     * @return true if the controller resolved the overflow by rolling
     *         back (tags are now clear; eviction may proceed), false if
     *         the fill must wait for the epoch to end (the controller
     *         will call L1Cache::specCleared() then).
     */
    virtual bool specOverflow(Addr block_addr,
                              bool needed_for_commit) = 0;
};

} // namespace fenceless::mem
