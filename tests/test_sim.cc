/**
 * @file
 * Unit tests for the event queue: ordering, determinism, deschedule/
 * reschedule semantics, and one-shot helpers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/eventq.hh"

using namespace fenceless;
using namespace fenceless::sim;

namespace
{

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id,
                   int priority = prio_default)
        : Event(priority), log_(log), id_(id)
    {}

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

} // namespace

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2), e3(log, 3);
    eq.schedule(&e2, 20);
    eq.schedule(&e1, 10);
    eq.schedule(&e3, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2), e3(log, 3);
    eq.schedule(&e1, 5);
    eq.schedule(&e2, 5);
    eq.schedule(&e3, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBeatsInsertion)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent low(log, 1, Event::prio_lowest);
    RecordingEvent high(log, 2, Event::prio_highest);
    eq.schedule(&low, 5);
    eq.schedule(&high, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 10);
    eq.schedule(&e2, 20);
    eq.deschedule(&e1);
    EXPECT_FALSE(e1.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, Reschedule)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 10);
    eq.schedule(&e2, 20);
    eq.reschedule(&e1, 30); // move past e2
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RunHorizonStopsEarly)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 10);
    eq.schedule(&e2, 100);
    eq.run(50);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fired;
    EventFunctionWrapper second([&] { fired.push_back(eq.curTick()); },
                                "second");
    EventFunctionWrapper first(
        [&] {
            fired.push_back(eq.curTick());
            eq.schedule(&second, eq.curTick() + 7);
        },
        "first");
    eq.schedule(&first, 3);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{3, 10}));
}

TEST(EventQueue, OneShotSelfDeletes)
{
    EventQueue eq;
    int count = 0;
    scheduleOneShot(eq, 5, [&] { ++count; });
    scheduleOneShot(eq, 5, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1), e2(log, 2);
    eq.schedule(&e1, 1);
    eq.schedule(&e2, 2);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NumPendingTracksLazyDeletes)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent e1(log, 1);
    eq.schedule(&e1, 10);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.deschedule(&e1);
    EXPECT_EQ(eq.numPending(), 0u);
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_TRUE(log.empty());
}

namespace
{

/**
 * Near, far and stale queue entries plus events that schedule more
 * (near and far) when they fire; every firing logs its id and tick.
 */
struct MixedSchedule
{
    std::vector<int> log;
    std::vector<Tick> ticks;
    EventQueue eq;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;

    EventFunctionWrapper &
    add(int id, int priority = Event::prio_default,
        std::function<void()> then = {})
    {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [this, id, then] {
                log.push_back(id);
                ticks.push_back(eq.curTick());
                if (then)
                    then();
            },
            "mixed", priority));
        return *events.back();
    }

    MixedSchedule()
    {
        eq.schedule(&add(1), 3);
        eq.schedule(&add(2, Event::prio_highest), 3);
        eq.schedule(&add(3), 1000); // far
        // Stale near entry: rescheduled from 10 to 40.
        EventFunctionWrapper &moved = add(4, Event::prio_default, [this] {
            eq.scheduleOneShot(eq.curTick() + 1500, [this] {
                log.push_back(5);
                ticks.push_back(eq.curTick());
            });
        });
        eq.schedule(&moved, 10);
        eq.reschedule(&moved, 40);
        // Stale far entry: rescheduled from 700 to 20.
        EventFunctionWrapper &pulled = add(6);
        eq.schedule(&pulled, 700);
        eq.reschedule(&pulled, 20);
        // Descheduled outright.
        EventFunctionWrapper &dropped = add(7);
        eq.schedule(&dropped, 7);
        eq.deschedule(&dropped);
        // Fires far out and schedules near work behind itself.
        EventFunctionWrapper &late = add(8);
        eq.schedule(&add(9, Event::prio_default,
                         [this, &late] {
                             eq.schedule(&late, eq.curTick() + 5);
                         }),
                    2000);
    }
};

} // namespace

TEST(EventQueue, RunPeekPopsOncePerEvent)
{
    MixedSchedule stepped;
    while (stepped.eq.step()) {
    }

    MixedSchedule ran;
    // The horizon falls between event 4 (tick 40) and event 3 (1000).
    EXPECT_EQ(ran.eq.run(500), 500u);
    EXPECT_EQ(ran.log, (std::vector<int>{2, 1, 6, 4}));
    EXPECT_FALSE(ran.eq.empty());
    ran.eq.run();

    EXPECT_EQ(stepped.log, (std::vector<int>{2, 1, 6, 4, 3, 5, 9, 8}));
    EXPECT_EQ(stepped.ticks,
              (std::vector<Tick>{3, 3, 20, 40, 1000, 1540, 2000, 2005}));
    EXPECT_EQ(ran.log, stepped.log);
    EXPECT_EQ(ran.ticks, stepped.ticks);
    EXPECT_EQ(ran.eq.curTick(), stepped.eq.curTick());
    EXPECT_EQ(ran.eq.nearPops(), stepped.eq.nearPops());
    EXPECT_EQ(ran.eq.farPops(), stepped.eq.farPops());
    EXPECT_EQ(ran.eq.stalePops(), stepped.eq.stalePops());
    EXPECT_GT(ran.eq.nearPops(), 0u);
    EXPECT_GT(ran.eq.farPops(), 0u);
    EXPECT_GT(ran.eq.stalePops(), 0u);
    EXPECT_TRUE(ran.eq.empty());
}
