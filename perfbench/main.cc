/**
 * @file
 * perfbench: run one benchmark workload for a fixed host time and
 * print its metrics.
 *
 *   perfbench --workload lock4|mesh64|suite --seed N --seconds S
 *             --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics (BENCHMARK.json
 * "end_to_end"); --trace 1 reports the per-layer metrics ("per_layer")
 * from a traced run.  The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.  The lines before it
 * give the run context, seed, sample counts, tail percentiles and (when
 * traced) the digest of the simulated stat groups.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/provenance.hh"
#include "perfbench/bench.hh"

using namespace fenceless;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload lock4|mesh64|suite"
                 " --seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
contextJson(const Args &a, unsigned jobs)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonQuote(a.workload)
       << ", \"seed\": " << a.seed << ", \"seconds\": " << num(a.seconds)
       << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"jobs\": " << jobs
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonQuote(cpuModel())
       << ", \"compiler\": " << jsonQuote(__VERSION__)
       << ", \"build_type\": " << jsonQuote(provenance::buildType())
       << ", \"cxx_flags\": " << jsonQuote(PERFBENCH_CXX_FLAGS)
       << ", \"git\": " << jsonQuote(provenance::gitHash()) << "}";
    return os.str();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * The highest of p50/p75/p90/p95/p99 with at least ten samples beyond
 * it (nearest rank), as "pNN=value"; "none" below twenty samples.
 */
std::string
tailPercentile(std::vector<double> v, bool higher_is_better)
{
    std::sort(v.begin(), v.end());
    if (higher_is_better)
        std::reverse(v.begin(), v.end()); // the tail is the slow side
    const double n = static_cast<double>(v.size());
    std::string best = "none";
    for (double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
        const auto rank = static_cast<std::size_t>(std::ceil(p / 100 * n));
        if (rank == 0 || v.size() - rank < 10)
            break;
        best = "p" + num(p) + "=" + num(v[rank - 1]);
    }
    return best;
}

/** One reported metric and, for timings, its per-pass samples. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    std::vector<double> samples; //!< empty for non-timing metrics
    bool higher_is_better = false;
};

Metric
timing(std::string name, std::string unit, std::vector<double> samples,
       bool higher_is_better = false)
{
    const double value = median(samples);
    return {std::move(name), std::move(unit), value, std::move(samples),
            higher_is_better};
}

template <typename F>
std::vector<double>
perPass(const std::vector<Pass> &passes, F f)
{
    std::vector<double> v;
    for (const Pass &p : passes)
        v.push_back(f(p));
    return v;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Pin the calling thread to @p cpu (best effort). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Σ over a pass's simulations of their whole task's wall time. */
double
taskWall(const Pass &p)
{
    double wall = 0;
    for (const SimResult &s : p.sims)
        wall += s.end_s - s.start_s;
    return wall;
}

/** Makespan minus the time the first worker ran out of work. */
double
idleTail(const Pass &p)
{
    std::map<std::size_t, double> last_end;
    for (const SimResult &s : p.sims)
        last_end[s.worker] = std::max(last_end[s.worker], s.end_s);
    const std::size_t busy_workers =
        std::min<std::size_t>(p.jobs, p.sims.size());
    double first_out = 0;
    if (last_end.size() >= busy_workers) {
        first_out = p.wall_s;
        for (const auto &[w, end] : last_end)
            first_out = std::min(first_out, end);
    }
    return p.wall_s - first_out;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Pass> &passes, double pass_ratio)
{
    using P = const Pass &;
    return {
        timing("wall_s", "s", perPass(passes, [](P p) { return p.wall_s; })),
        timing("sim_ips", "inst/s",
               perPass(passes,
                       [](P p) {
                           return static_cast<double>(p.instructions())
                                  / p.sum(&SimResult::run_s);
                       }),
               true),
        timing("setup_s", "s", perPass(passes, [](P p) {
                   return p.sum(&SimResult::build_s)
                          + p.sum(&SimResult::construct_s);
               })),
        timing("verify_s", "s", perPass(passes, [](P p) {
                   return p.sum(&SimResult::check_s)
                          + p.sum(&SimResult::audit_s);
               })),
        {"peak_rss_mb", "MiB", peakRssMb(), {}, false},
        {"pass_ratio", "ratio", pass_ratio, {}, true},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Pass> &passes,
                const std::vector<Pass> &serial, const Counts &counts)
{
    using P = const Pass &;
    auto span = [&passes](const char *name, double SimResult::*s) {
        return timing(name, "s",
                      perPass(passes, [s](P p) { return p.sum(s); }));
    };
    std::vector<Metric> m = {
        span("harness.construct_s", &SimResult::construct_s),
        span("harness.run_s", &SimResult::run_s),
        timing("harness.run_ns_per_event", "ns",
               perPass(passes,
                       [](P p) {
                           return p.sum(&SimResult::run_s) * 1e9
                                  / p.counts().at("eventq.events");
                       })),
        span("harness.audit_s", &SimResult::audit_s),
        span("harness.stats_export_s", &SimResult::export_s),
        timing("harness.sweep.utilization", "ratio",
               perPass(passes,
                       [](P p) {
                           return taskWall(p) / (p.jobs * p.wall_s);
                       }),
               true),
        timing("harness.sweep.idle_tail_s", "s", perPass(passes, idleTail)),
        {"harness.sweep.inflation", "ratio",
         median(perPass(passes, taskWall))
             / median(perPass(serial, taskWall)),
         {}, false},
        span("workload.build_s", &SimResult::build_s),
        span("workload.check_s", &SimResult::check_s),
    };

    // The five spans' share of each pass's task time, worst pass.
    double coverage = 1;
    for (const auto *set : {&passes, &serial}) {
        for (const Pass &p : *set) {
            const double spans =
                p.sum(&SimResult::build_s) + p.sum(&SimResult::construct_s)
                + p.sum(&SimResult::run_s) + p.sum(&SimResult::check_s)
                + p.sum(&SimResult::audit_s);
            const double tracer =
                p.sum(&SimResult::export_s) + p.sum(&SimResult::trace_s);
            coverage = std::min(coverage, spans / (taskWall(p) - tracer));
        }
    }
    m.push_back({"harness.span_coverage", "ratio", coverage, {}, true});

    static const std::map<std::string, std::string> units = {
        {"core.stall_cycles", "cycles"},
        {"l1.miss_latency_p99", "cycles"},
        {"l2dir.txn_queue_wait_p99", "cycles"},
        {"sim.cycles", "cycles"},
        {"sim.ipc", "inst/cycle"},
        {"network.hops_per_msg", "hops/msg"},
        {"l1.hit_ratio", "ratio"},
        {"spec.commit_ratio", "ratio"},
    };
    for (const auto &[name, value] : counts) {
        const auto u = units.find(name);
        m.push_back({name, u == units.end() ? "count" : u->second, value,
                     {}, false});
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to report timings from an "
                 "unoptimised build (build with RelWithDebInfo or "
                 "Release)\n";
    return 1;
#endif

    const std::vector<SimSpec> specs =
        makeWorkload(args.workload, args.seed);
    const unsigned jobs = workloadJobs(args.workload);
    std::cout << "context " << contextJson(args, jobs) << "\n";

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::set<std::string> problems;
    auto account = [&](const Pass &p) {
        attempted += p.sims.size();
        failed += p.failed();
        for (const SimResult &s : p.sims) {
            if (s.outcome != Outcome::Ok)
                problems.insert(s.error);
        }
    };

    // A one-thread workload runs each pass pinned to the next allowed
    // CPU in turn.  On a shared host, speed can differ between CPUs for
    // minutes at a time, so without this a run's median depends on
    // where the scheduler left the thread.  A multi-thread pass already
    // spans every CPU.
    const std::vector<int> cpus = jobs == 1 ? allowedCpus()
                                            : std::vector<int>{};
    std::size_t round = 0; // a traced round's two passes share a CPU
    auto pass = [&](unsigned pass_jobs, bool traced) {
        if (cpus.size() > 1)
            pinTo(cpus[round % cpus.size()]);
        return runPass(specs, pass_jobs, traced);
    };

    // Warm-up pass: untimed, but its simulations count as attempted.
    const Pass warm = pass(jobs, args.trace);
    account(warm);

    // Timed passes for --seconds (at least three).  A traced run pairs
    // each pass with a serial one, alternating which runs first.
    std::vector<Pass> passes;
    std::vector<Pass> serial;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    while (Clock::now() < deadline || passes.size() < 3) {
        ++round;
        const bool serial_first = args.trace && passes.size() % 2;
        if (serial_first)
            serial.push_back(pass(1, true));
        passes.push_back(pass(jobs, args.trace));
        if (args.trace && !serial_first)
            serial.push_back(pass(1, true));
    }
    for (const Pass &p : passes)
        account(p);
    for (const Pass &p : serial)
        account(p);

    // Determinism: every pass simulates exactly the same work.
    for (const Pass &p : passes) {
        if (p.instructions() != warm.instructions())
            problems.insert("instruction count differs across passes");
    }
    std::vector<Metric> metrics;
    if (args.trace) {
        const Counts counts = warm.counts();
        for (const auto *set : {&passes, &serial}) {
            for (const Pass &p : *set) {
                if (p.counts() != counts || p.digest() != warm.digest()) {
                    problems.insert("per-layer counts differ between "
                                    "passes (jobs "
                                    + std::to_string(p.jobs) + ")");
                }
            }
        }
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(warm.digest()));
        std::cout << "digest " << args.workload << " " << digest << "\n";
        metrics = perLayerMetrics(passes, serial, counts);
    } else {
        metrics = endToEndMetrics(
            passes, 1.0 - static_cast<double>(failed) / attempted);
    }

    std::cout << "passes " << passes.size() << " sims_per_pass "
              << specs.size() << " attempted " << attempted << " failed "
              << failed << " fail_ratio "
              << num(static_cast<double>(failed) / attempted) << "\n";
    for (const Metric &m : metrics) {
        std::cout << "metric " << m.name << " " << num(m.value) << " "
                  << m.unit;
        if (!m.samples.empty()) {
            std::cout << " median n=" << m.samples.size() << " "
                      << tailPercentile(m.samples, m.higher_is_better);
        }
        std::cout << "\n";
    }
    for (const std::string &p : problems)
        std::cerr << "perfbench: " << p << "\n";

    std::ostringstream out;
    out << "{\"correct\": " << (problems.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << jsonQuote(metrics[i].name)
            << ": {\"value\": " << num(metrics[i].value)
            << ", \"unit\": " << jsonQuote(metrics[i].unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}
