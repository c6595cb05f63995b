/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Determinism: events scheduled for the same tick fire in (priority,
 * insertion-sequence) order, so a run is reproducible regardless of queue
 * internals.  Descheduling is lazy: a cancelled or rescheduled entry is
 * recognised as stale when popped and skipped (counted in stalePops()).
 *
 * The queue is a two-level calendar queue.  Nearly every event a cycle-
 * accurate simulator schedules lands within a few ticks of "now" (core
 * ticks at +1, cache hits at +hit_latency, network hops at +latency), so
 * the near future -- a circular window of @ref bucket_window per-tick
 * buckets -- gets O(1) push and pop.  Each bucket keeps its entries
 * sorted by (priority, stamp); with uniform priorities (the common case)
 * an insert is a plain append.  Events beyond the window overflow into a
 * binary heap (the far queue) and migrate into the buckets as the
 * current tick approaches them, so the exact (when, priority, stamp)
 * total order of the old single-heap implementation is preserved
 * bit-for-bit.
 *
 * One-shot events -- the unbounded fire-and-forget callbacks used for
 * cache responses and message deliveries -- are the hottest allocation
 * site in the simulator, so they are pooled: the queue keeps fired
 * nodes on an intrusive free list and reuses them, and the callable is
 * stored inline in the node (no std::function, no per-fire heap
 * traffic once the pool has warmed up).
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace fenceless::sim
{

class EventQueue;

/**
 * An event that can be scheduled on an EventQueue.
 *
 * Events are owned by their creators (typically as member objects of a
 * simulated component) and may be scheduled, descheduled and rescheduled
 * freely; at most one pending occurrence exists at a time.
 */
class Event
{
  public:
    /** Standard priorities; lower fires first within a tick. */
    enum Priority : int
    {
        prio_highest = 0,
        prio_default = 50,
        prio_stat = 90,
        prio_lowest = 100,
    };

    explicit Event(int priority = prio_default) : priority_(priority) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called when the event fires. */
    virtual void process() = 0;

    /**
     * Descriptive name for debugging.  Returns a borrowed pointer (valid
     * for the lifetime of the event) rather than a std::string by value:
     * scheduling-path assertions evaluate their arguments eagerly, so a
     * string-building name() would construct and destroy a string on
     * every schedule() even though the message is only used on failure.
     */
    virtual const char *name() const { return "event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    int priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t stamp_ = 0; //!< queue entry identity, for lazy removal
    int priority_;
    bool scheduled_ = false;
};

/** An Event whose process() invokes a bound callable. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback, std::string name,
                         int priority = prio_default)
        : Event(priority), callback_(std::move(callback)),
          name_(std::move(name))
    {
        flAssert(static_cast<bool>(callback_),
                 "EventFunctionWrapper requires a callable");
    }

    void process() override { callback_(); }
    const char *name() const override { return name_.c_str(); }

  private:
    std::function<void()> callback_;
    std::string name_;
};

namespace detail
{

/**
 * Type-erased nullary callable with inline storage, purpose-built for
 * pooled one-shot events.  Closures up to inline_bytes (the common
 * case: `this` plus a few words) live in the node itself; larger ones
 * fall back to a heap box behind the same two-function dispatch.
 */
class OneShotFn
{
  public:
    static constexpr std::size_t inline_bytes = 48;

    OneShotFn() = default;
    ~OneShotFn() { clear(); }

    OneShotFn(const OneShotFn &) = delete;
    OneShotFn &operator=(const OneShotFn &) = delete;

    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        clear();
        if constexpr (sizeof(D) <= inline_bytes &&
                      alignof(D) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(storage_)) D(std::forward<F>(fn));
            invoke_ = [](void *p) { (*static_cast<D *>(p))(); };
            if constexpr (std::is_trivially_destructible_v<D>)
                destroy_ = nullptr;
            else
                destroy_ = [](void *p) { static_cast<D *>(p)->~D(); };
        } else {
            using Box = D *;
            ::new (static_cast<void *>(storage_))
                Box(new D(std::forward<F>(fn)));
            invoke_ = [](void *p) { (**static_cast<Box *>(p))(); };
            destroy_ = [](void *p) { delete *static_cast<Box *>(p); };
        }
    }

    bool armed() const { return invoke_ != nullptr; }

    /** Run the stored callable (must be armed). */
    void operator()() { invoke_(storage_); }

    /** Destroy the stored callable, returning to the empty state. */
    void
    clear()
    {
        if (destroy_)
            destroy_(storage_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

  private:
    alignas(std::max_align_t) unsigned char storage_[inline_bytes];
    void (*invoke_)(void *) = nullptr;
    void (*destroy_)(void *) = nullptr;
};

} // namespace detail

/**
 * The global event queue.  Single-threaded: one queue drives the whole
 * simulated system.  Distinct queues share nothing, so independent
 * systems may run concurrently on different host threads.
 */
class EventQueue
{
  public:
    /**
     * Width of the near-future calendar window, in ticks.  Power of two
     * (bucket index is a mask).  Core ticks (+1), cache hits
     * (+hit_latency) and network hops (+latency+serialization) all land
     * well inside it; only long-horizon events (stat snapshots, parked
     * retries under backpressure) overflow into the far heap.
     */
    static constexpr std::size_t bucket_window = 64;

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick curTick() const { return cur_tick_; }

    bool empty() const { return num_scheduled_ == 0; }
    std::size_t numPending() const { return num_scheduled_; }

    /** Schedule @p ev to fire at absolute tick @p when (>= curTick). */
    void schedule(Event *ev, Tick when);

    /** Remove a pending event (no-op scheduling state if not pending). */
    void deschedule(Event *ev);

    /** Move a pending (or idle) event to a new absolute tick. */
    void reschedule(Event *ev, Tick when);

    /**
     * Fire-and-forget: run @p fn at absolute tick @p when.  The event
     * node comes from the queue's free-list pool and returns to it
     * after firing; the steady state allocates nothing.  For callbacks
     * whose count is unbounded (cache responses, message deliveries);
     * components with a fixed set of recurring events should own
     * EventFunctionWrapper members instead.
     */
    template <typename F>
    void
    scheduleOneShot(Tick when, F &&fn)
    {
        OneShot *ev = acquireOneShot();
        ev->fn.emplace(std::forward<F>(fn));
        schedule(ev, when);
    }

    /** Total one-shot nodes ever allocated (pool high-water mark). */
    std::size_t oneShotNodesAllocated() const
    {
        return oneshot_nodes_.size();
    }

    /** One-shot nodes currently parked on the free list. */
    std::size_t oneShotNodesFree() const { return oneshot_free_count_; }

    /**
     * Lazily-deleted entries skipped while looking for the next live
     * event (descheduled/rescheduled leftovers in the buckets or the
     * far heap).  A queue-health metric: it growing out of proportion
     * with event volume means some component churns schedules.
     */
    std::uint64_t stalePops() const { return stale_pops_; }

    /** Events popped from the near-future calendar buckets. */
    std::uint64_t nearPops() const { return near_pops_; }

    /** Events popped straight from the far (overflow) heap. */
    std::uint64_t farPops() const { return far_pops_; }

    /**
     * Run until the queue drains or @p max_tick is passed.
     * @return the final current tick.
     */
    Tick run(Tick max_tick = fenceless::max_tick);

    /**
     * Make the current run() return before firing another event.  Used
     * by the hang watchdog: its abort must unwind out of the event loop
     * (so the harness can dump a dossier and exit cleanly) rather than
     * terminate the process from inside an event handler.  The flag is
     * consumed by the run() it stops; a later run() call starts fresh.
     */
    void requestStop() { stop_requested_ = true; }

    /** @return true if requestStop() ended (or will end) a run. */
    bool stopRequested() const { return stop_requested_; }

    /** Fire exactly one event if any is pending. @return true if fired. */
    bool step();

  private:
    /** A pooled self-recycling event wrapping an inline callable. */
    class OneShot final : public Event
    {
      public:
        explicit OneShot(EventQueue &owner) : owner_(owner) {}

        void
        process() override
        {
            // Run, destroy the closure, then recycle the node.  The
            // callable may schedule further one-shots; this node is
            // not on the free list while it runs, so reentrant
            // scheduling can never hand it out twice.
            fn();
            fn.clear();
            owner_.releaseOneShot(this);
        }

        const char *name() const override { return "one-shot"; }

        detail::OneShotFn fn;
        OneShot *next_free = nullptr;

      private:
        EventQueue &owner_;
    };

    /** A far-heap entry (also the migration record). */
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t stamp;
        Event *event;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.stamp > b.stamp;
        }
    };

    /**
     * A near-window entry.  `when` is kept because a bucket can hold
     * leftovers from a lapped tick (when == t - k*bucket_window) that
     * are recognised and dropped as stale when examined.
     */
    struct NearEntry
    {
        Tick when;
        std::uint64_t stamp;
        Event *event;
        int priority;
    };

    /**
     * One calendar bucket: entries sorted ascending by (priority,
     * stamp) from `head` on; the prefix before `head` has been popped.
     * The vector is recycled (clear keeps capacity) once drained.
     */
    struct Bucket
    {
        std::vector<NearEntry> entries;
        std::size_t head = 0;
    };

    /** Where findNext() located the next live event. */
    enum class NextWhere : std::uint8_t
    {
        None, //!< queue drained (ignoring stale leftovers)
        Near, //!< head of buckets_[when & mask]
        Far,  //!< top of far_
    };

    /**
     * Prune stale entries, migrate far entries that entered the window,
     * and locate the earliest live event without popping it.
     */
    NextWhere findNext(Tick &when_out);

    /**
     * Pop the live event findNext() just located at (@p where,
     * @p when) and advance the current tick to it.
     */
    Event *take(NextWhere where, Tick when);

    /** Insert into the calendar (when must be inside the window). */
    void pushNear(Tick when, int priority, std::uint64_t stamp,
                  Event *ev);

    /** Take a node from the free list, growing the pool if empty. */
    OneShot *acquireOneShot();

    /** Park a fired node on the free list for reuse. */
    void releaseOneShot(OneShot *ev);

    std::array<Bucket, bucket_window> buckets_;
    std::size_t near_count_ = 0; //!< entries physically in buckets
    /**
     * No live near entry exists at any tick < next_hint_.  Lets the
     * bucket scan resume where the previous one stopped instead of
     * re-walking empty buckets from cur_tick_ on every pop.
     */
    Tick next_hint_ = 0;

    std::priority_queue<Entry, std::vector<Entry>, Later> far_;
    Tick cur_tick_ = 0;
    std::uint64_t next_stamp_ = 1;
    std::size_t num_scheduled_ = 0;

    std::uint64_t stale_pops_ = 0;
    std::uint64_t near_pops_ = 0;
    std::uint64_t far_pops_ = 0;
    bool stop_requested_ = false;

    std::vector<std::unique_ptr<OneShot>> oneshot_nodes_; //!< ownership
    OneShot *oneshot_free_ = nullptr; //!< intrusive free list head
    std::size_t oneshot_free_count_ = 0;
};

/**
 * Free-function form of EventQueue::scheduleOneShot, kept for the many
 * component call sites.
 */
template <typename F>
void
scheduleOneShot(EventQueue &eq, Tick when, F &&fn)
{
    eq.scheduleOneShot(when, std::forward<F>(fn));
}

} // namespace fenceless::sim
