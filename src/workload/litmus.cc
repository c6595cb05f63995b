#include "workload/litmus.hh"

#include "base/logging.hh"
#include "harness/system.hh"
#include "isa/assembler.hh"
#include "workload/runtime.hh"

namespace fenceless::workload
{

using namespace isa;

namespace
{

/**
 * Busy-wait long enough for warm-up coherence traffic (and any
 * speculative epoch the warm-up fence opened) to settle before the
 * timed body runs.
 */
constexpr std::uint64_t settle_iterations = 800;

std::uint64_t
skewOf(const std::vector<std::uint64_t> &skews, std::uint32_t t)
{
    return t < skews.size() ? skews[t] : 0;
}

/** Dispatch: thread t jumps to label "t<t>"; extra threads halt. */
void
emitDispatch(Assembler &as, std::uint32_t participants)
{
    for (std::uint32_t t = 0; t < participants; ++t) {
        as.li(t0, t);
        as.beq(tp, t0, std::string("t").append(std::to_string(t)));
    }
    as.halt();
}

/** Warm-up epilogue: drain, settle, then apply this thread's skew. */
void
emitSettleAndSkew(Assembler &as, std::uint64_t skew)
{
    as.fence();
    emitDelay(as, t1, settle_iterations);
    emitDelay(as, t1, skew);
}

} // namespace

isa::Program
LitmusSB::build(const std::vector<std::uint64_t> &skews) const
{
    Assembler as;
    const Addr x = as.paddedWord("X", 0);
    const Addr y = as.paddedWord("Y", 0);
    const Addr results = as.alloc("results", 2 * 64, 64);
    result_base_ = results;

    emitDispatch(as, 2);

    // T0: X = 1; r0 = Y
    as.label("t0");
    as.li(a0, x);
    as.li(a1, y);
    // Warm both blocks so the body load can hit while the store is
    // still fetching ownership -- the classic store-buffering window.
    as.ld(t1, a0);
    as.ld(t1, a1);
    emitSettleAndSkew(as, skewOf(skews, 0));
    as.li(t0, 1);
    as.st(t0, a0);
    if (with_fences_)
        as.fence();
    as.ld(t1, a1);
    as.li(a2, results);
    as.st(t1, a2);
    as.halt();

    // T1: Y = 1; r1 = X
    as.label("t1");
    as.li(a0, y);
    as.li(a1, x);
    as.ld(t1, a0);
    as.ld(t1, a1);
    emitSettleAndSkew(as, skewOf(skews, 1));
    as.li(t0, 1);
    as.st(t0, a0);
    if (with_fences_)
        as.fence();
    as.ld(t1, a1);
    as.li(a2, results + 64);
    as.st(t1, a2);
    as.halt();

    return as.finish();
}

isa::Program
LitmusMP::build(const std::vector<std::uint64_t> &skews) const
{
    Assembler as;
    const Addr data = as.paddedWord("data", 0);
    const Addr flag = as.paddedWord("flag", 0);
    // Cold blocks written before the data store.  They occupy the
    // relaxed store buffer's drain slots so the (cold) data store
    // becomes visible long after the (hitting, preferentially drained)
    // flag store -- widening the reordering window an in-order reader
    // can observe.
    constexpr unsigned num_delayers = 6;
    const Addr delayers = as.alloc("delayers", num_delayers * 64, 64);
    const Addr results = as.alloc("results", 2 * 64, 64);
    result_base_ = results;

    emitDispatch(as, 2);

    // T0: delayers...; data = 1; [release] flag = 1
    as.label("t0");
    as.li(a0, data);
    as.li(a1, flag);
    // Warm the flag block writable so the relaxed store buffer can
    // drain the flag store (a hit) ahead of the cold stores.
    as.st(x0, a1);
    emitSettleAndSkew(as, skewOf(skews, 0));
    as.li(a2, delayers);
    as.li(t0, 1);
    for (unsigned d = 0; d < num_delayers; ++d)
        as.st(t0, a2, static_cast<std::int64_t>(d) * 64);
    as.st(t0, a0);
    if (with_release_)
        as.fenceRelease();
    as.st(t0, a1);
    as.halt();

    // T1: r0 = flag; r1 = data
    as.label("t1");
    as.li(a0, flag);
    as.li(a1, data);
    // Warm the data block so the second load can hit a stale copy.
    as.ld(t1, a1);
    emitSettleAndSkew(as, skewOf(skews, 1));
    as.ld(t0, a0);
    as.ld(t1, a1);
    as.li(a2, results);
    as.st(t0, a2);
    as.li(a2, results + 64);
    as.st(t1, a2);
    as.halt();

    return as.finish();
}

isa::Program
LitmusIRIW::build(const std::vector<std::uint64_t> &skews) const
{
    Assembler as;
    const Addr x = as.paddedWord("X", 0);
    const Addr y = as.paddedWord("Y", 0);
    const Addr results = as.alloc("results", 4 * 64, 64);
    result_base_ = results;

    emitDispatch(as, 4);

    // T0: X = 1                       T1: Y = 1
    // T2: r0 = X; r1 = Y              T3: r2 = Y; r3 = X
    as.label("t0");
    as.li(a0, x);
    emitSettleAndSkew(as, skewOf(skews, 0));
    as.li(t0, 1);
    as.st(t0, a0);
    as.halt();

    as.label("t1");
    as.li(a0, y);
    emitSettleAndSkew(as, skewOf(skews, 1));
    as.li(t0, 1);
    as.st(t0, a0);
    as.halt();

    as.label("t2");
    as.li(a0, x);
    as.li(a1, y);
    as.ld(t2, a0);
    as.ld(t2, a1);
    emitSettleAndSkew(as, skewOf(skews, 2));
    as.ld(t2, a0);
    if (with_fences_)
        as.fence();
    as.ld(t3, a1);
    as.li(a2, results);
    as.st(t2, a2);
    as.li(a2, results + 64);
    as.st(t3, a2);
    as.halt();

    as.label("t3");
    as.li(a0, y);
    as.li(a1, x);
    as.ld(t2, a0);
    as.ld(t2, a1);
    emitSettleAndSkew(as, skewOf(skews, 3));
    as.ld(t2, a0);
    if (with_fences_)
        as.fence();
    as.ld(t3, a1);
    as.li(a2, results + 128);
    as.st(t2, a2);
    as.li(a2, results + 192);
    as.st(t3, a2);
    as.halt();

    return as.finish();
}

isa::Program
LitmusCoRR::build(const std::vector<std::uint64_t> &skews) const
{
    Assembler as;
    const Addr x = as.paddedWord("X", 0);
    const Addr results = as.alloc("results", 2 * 64, 64);
    result_base_ = results;

    emitDispatch(as, 2);

    // T0: X = 1
    as.label("t0");
    as.li(a0, x);
    emitSettleAndSkew(as, skewOf(skews, 0));
    as.li(t0, 1);
    as.st(t0, a0);
    as.halt();

    // T1: r0 = X; r1 = X
    as.label("t1");
    as.li(a0, x);
    as.ld(t1, a0); // warm (S) so both reads can hit around the Inv
    emitSettleAndSkew(as, skewOf(skews, 1));
    as.ld(t0, a0);
    as.ld(t1, a0);
    as.li(a2, results);
    as.st(t0, a2);
    as.li(a2, results + 64);
    as.st(t1, a2);
    as.halt();

    return as.finish();
}

isa::Program
Litmus22W::build(const std::vector<std::uint64_t> &skews) const
{
    Assembler as;
    const Addr x = as.paddedWord("X", 0);
    const Addr y = as.paddedWord("Y", 0);
    // Delayers make the first store of each thread slow relative to
    // its (hitting) second store, as in the MP shape.
    constexpr unsigned num_delayers = 4;
    const Addr delayers = as.alloc("delayers",
                                   2 * num_delayers * 64, 64);
    const Addr results = as.alloc("results", 2 * 64, 64);
    (void)results;
    // The observed outcome of 2+2W is the final memory state itself.
    result_base_ = x; // slot 0 = X, slot 1 = Y (both padded to 64 B)

    emitDispatch(as, 2);

    // T0: X = 1; Y = 2   (warm Y writable so Y=2 drains first)
    as.label("t0");
    as.li(a0, x);
    as.li(a1, y);
    as.st(x0, a1);
    emitSettleAndSkew(as, skewOf(skews, 0));
    as.li(a2, delayers);
    as.li(t0, 1);
    for (unsigned d = 0; d < num_delayers; ++d)
        as.st(t0, a2, static_cast<std::int64_t>(d) * 64);
    as.st(t0, a0); // X = 1 (cold)
    if (with_release_)
        as.fenceRelease();
    as.li(t0, 2);
    as.st(t0, a1); // Y = 2 (hit)
    as.halt();

    // T1: Y = 1; X = 2   (warm X writable so X=2 drains first)
    as.label("t1");
    as.li(a0, y);
    as.li(a1, x);
    as.st(x0, a1);
    emitSettleAndSkew(as, skewOf(skews, 1));
    as.li(a2, delayers + num_delayers * 64);
    as.li(t0, 1);
    for (unsigned d = 0; d < num_delayers; ++d)
        as.st(t0, a2, static_cast<std::int64_t>(d) * 64);
    as.st(t0, a0); // Y = 1 (cold)
    if (with_release_)
        as.fenceRelease();
    as.li(t0, 2);
    as.st(t0, a1); // X = 2 (hit)
    as.halt();

    return as.finish();
}

std::set<LitmusOutcome>
runLitmus(const LitmusTest &test, const harness::SystemConfig &config,
          std::uint64_t max_skew, std::uint64_t stride)
{
    std::set<LitmusOutcome> outcomes;
    const std::uint32_t n = test.numThreads();

    // Sweep skews of the first two threads (the interesting relative
    // timing); later threads get a derived skew.
    for (std::uint64_t s0 = 0; s0 < max_skew; s0 += stride) {
        for (std::uint64_t s1 = 0; s1 < max_skew; s1 += stride) {
            std::vector<std::uint64_t> skews(n, 0);
            skews[0] = s0;
            if (n > 1)
                skews[1] = s1;
            for (std::uint32_t t = 2; t < n; ++t)
                skews[t] = (s0 * 7 + s1 * 13 + t * 3) % max_skew;

            isa::Program prog = test.build(skews);
            harness::SystemConfig cfg = config;
            cfg.num_cores = std::max(cfg.num_cores, n);
            harness::System sys(cfg, prog);
            const bool done = sys.run();
            flAssert(done, "litmus '", test.name(),
                     "' did not terminate");

            LitmusOutcome outcome;
            for (unsigned r = 0; r < test.numResults(); ++r)
                outcome.push_back(sys.debugRead(test.resultAddr(r), 8));
            outcomes.insert(outcome);
        }
    }
    return outcomes;
}

bool
contains(const std::set<LitmusOutcome> &outcomes,
         const LitmusOutcome &outcome)
{
    return outcomes.count(outcome) > 0;
}

} // namespace fenceless::workload
