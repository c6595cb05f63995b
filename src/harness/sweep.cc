#include "harness/sweep.hh"

#include <algorithm>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace fenceless::harness
{

namespace
{

/**
 * One worker's share of the sweep.  The owner pops newest-first from
 * the back; thieves take oldest-first from the front, so a steal grabs
 * the task the owner would reach last.  A plain mutex per deque is
 * plenty here: tasks are whole simulation runs (milliseconds to
 * seconds), so queue traffic is negligible next to the work.
 *
 * A shared atomic cursor instead would be ~45 lines shorter, but it
 * raised peak RSS from 55.6 to 70.2 MiB (1.26x, 6/6 alternating 8 s
 * perfbench `suite` pairs, 4-CPU host), past the benchmark's 15%
 * bound.  Cause unverified; per-thread malloc arenas are a guess.
 */
struct WorkerDeque
{
    std::mutex mutex;
    std::deque<std::size_t> tasks; //!< indices into the shared batch
};

} // namespace

unsigned
SweepRunner::resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

void
SweepRunner::runAll(std::vector<std::function<void()>> thunks) const
{
    const std::size_t n = thunks.size();
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    if (workers <= 1) {
        // Sequential path: no threads created, exceptions propagate
        // directly.
        for (auto &thunk : thunks)
            thunk();
        return;
    }

    // All tasks are known up front and none spawns more, so an empty
    // set of deques means the sweep is fully claimed and a worker that
    // finds nothing to pop or steal can simply retire.
    std::vector<WorkerDeque> deques(workers);
    for (std::size_t i = 0; i < n; ++i)
        deques[i % workers].tasks.push_back(i);

    const std::size_t none = n; // sentinel: no task claimed
    std::mutex error_mutex;
    std::size_t error_index = none;
    std::exception_ptr error;

    auto worker = [&](unsigned self) {
        for (;;) {
            std::size_t task = none;
            {
                std::lock_guard<std::mutex> lock(deques[self].mutex);
                auto &mine = deques[self].tasks;
                if (!mine.empty()) {
                    task = mine.back();
                    mine.pop_back();
                }
            }
            for (unsigned delta = 1; task == none && delta < workers;
                 ++delta) {
                const unsigned victim = (self + delta) % workers;
                std::lock_guard<std::mutex> lock(deques[victim].mutex);
                auto &theirs = deques[victim].tasks;
                if (!theirs.empty()) {
                    task = theirs.front();
                    theirs.pop_front();
                }
            }
            if (task == none)
                return;
            try {
                thunks[task]();
            } catch (...) {
                // Keep the failure the sequential run would hit first.
                std::lock_guard<std::mutex> lock(error_mutex);
                if (task < error_index) {
                    error_index = task;
                    error = std::current_exception();
                }
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads.emplace_back(worker, w);
    for (auto &thread : threads)
        thread.join();

    if (error)
        std::rethrow_exception(error);
}

} // namespace fenceless::harness
