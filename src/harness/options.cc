#include "harness/options.hh"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "base/logging.hh"
#include "base/trace.hh"

namespace fenceless::harness
{

namespace
{

/**
 * Every option, in --help order: its name, the value shown after it in
 * the usage text ("" for a switch), and its help text ("\n" starts a
 * continuation line).  The parser accepts exactly these names.
 */
struct OptionSpec
{
    const char *name;
    const char *value;
    const char *help;
};

const OptionSpec option_table[] = {
    {"cores", "=N", "number of cores (up to 64)"},
    {"model", "=sc|tso|rmo", "consistency model"},
    {"spec", "=off|on-demand|continuous", ""},
    {"granularity", "=block|per-store", ""},
    {"overflow", "=stall|rollback", ""},
    {"sb-size", "=N", "store-buffer entries"},
    {"l1-kb", "=N", "L1 size (KiB)"},
    {"l2-kb", "=N", "L2 size (KiB)"},
    {"dram-latency", "=N", "DRAM latency (cycles)"},
    {"net-latency", "=N", "crossbar flat latency (cycles)"},
    {"topology", "=T", "interconnect: crossbar|ring|mesh"},
    {"hop-latency", "=N",
     "per-hop latency for ring/mesh\n(cycles, default 3)"},
    {"dir-banks", "=N",
     "directory banks (power of two,\n1..64; banks interleave by block)"},
    {"scale", "=N", "workload scaling factor"},
    {"seed", "=N", "workload seed"},
    {"jobs", "=N",
     "host threads for independent runs\n(default: hardware concurrency;"
     "\n1 = sequential; output identical)"},
    {"csv", "", "machine-readable tables"},
    {"trace", "=f1,f2", "structured-trace flags"}, // + the flag names
    {"trace-out", "=FILE",
     "write Chrome trace-event JSON\n(implies --trace=all if no --trace)"},
    {"stats-json", "=FILE", "write the stat registry as JSON"},
    {"stats-interval", "=N",
     "snapshot stats every N cycles into\nthe --stats-json time series"},
    {"sweep-json", "=FILE",
     "benchmarks that sweep an axis also\nwrite one JSON object per sweep"
     "\npoint (fl_report --sweep-json)"},
    {"profile-out", "=FILE",
     "write the waste-attribution profile\nas JSON plus FILE.folded "
     "(flamegraph\nfolded stacks)"},
    {"waste-report", "", "print the top-N waste table"},
    {"blackbox-out", "=FILE",
     "dump the flight recorder after the\nrun (Chrome trace-event JSON)"},
    {"blackbox", "=N",
     "flight-recorder depth per component\n(default 256; 0 = off)"},
    {"watchdog-interval", "=N",
     "hang-watchdog window in cycles\n(default 100000; 0 = off)"},
    {"watchdog-storm", "=N",
     "rollbacks/window classified as a\nrollback storm (default 256)"},
    {"tail-sample", "=N",
     "trace 1 in N misses end to end\n(1 = every miss; byte-identical"
     "\nfor any --jobs)"},
    {"tail-report", "",
     "print the critical-path stage\nattribution table (implies"
     "\n--tail-sample=64 if unset)"},
    {"outliers-out", "=FILE",
     "write top-K slowest-request\ndossiers as JSON (implies span"
     "\ntracing like --tail-report)"},
    {"outliers", "=K", "dossiers to keep (default 10)"},
    {"help", "", "this message"},
};

/** The options that name an output file; see requireWritable. */
const char *const output_paths[] = {
    "trace-out",    "stats-json", "profile-out",
    "blackbox-out", "sweep-json", "outliers-out"};

/**
 * Fail fast on an unwritable output path: a long run that only
 * discovers a bad --trace-out / --stats-json / --profile-out at exit
 * loses all of its output.  Open in append mode (creates the file,
 * never truncates an existing one before the run actually writes).
 */
void
requireWritable(const char *option, const std::string &path)
{
    std::ofstream os(path, std::ios::app);
    if (!os) {
        fatal("--", option, ": cannot open '", path,
              "' for writing");
    }
}

} // namespace

Options::Options(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '", arg,
                  "' (only --option[=value] is supported)");
        arg = arg.substr(2);
        std::string name = arg;
        std::string value = "1";
        if (auto eq = arg.find('='); eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        }
        if (std::none_of(std::begin(option_table), std::end(option_table),
                         [&](const OptionSpec &o) { return name == o.name; }))
            fatal("unknown option '--", name, "' (try --help)");
        values_[name] = value;
    }

    if (has("help")) {
        printUsage(argv[0] ? argv[0] : "binary");
        std::exit(0);
    }
    csv_ = has("csv");
    scale_ = static_cast<unsigned>(getInt("scale", 1, UINT_MAX));
    if (scale_ == 0)
        fatal("option --scale must be at least 1");
    seed_ = getInt("seed", 42);
    jobs_ = static_cast<unsigned>(getInt("jobs", 0, UINT_MAX));

    for (const char *opt : output_paths) {
        if (has(opt))
            requireWritable(opt, get(opt));
    }
    if (has("profile-out")) // the folded sibling is written too
        requireWritable("profile-out", get("profile-out") + ".folded");
}

std::string
Options::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? "" : it->second;
}

std::uint64_t
Options::getInt(const std::string &name, std::uint64_t fallback,
                std::uint64_t max) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    // from_chars, not stoull: stoull skips whitespace, accepts a sign
    // (wrapping "-1" to 2^64-1) and stops quietly at trailing junk.
    const std::string &v = it->second;
    std::uint64_t n = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
    if (v.empty() || end != v.data() + v.size() ||
        ec == std::errc::invalid_argument) {
        fatal("option --", name, " expects a number, got '", v, "'");
    }
    if (ec == std::errc::result_out_of_range || n > max)
        fatal("option --", name, " is out of range (at most ", max,
              "), got '", v, "'");
    return n;
}

SystemConfig
Options::applyTo(SystemConfig base) const
{
    if (has("cores"))
        base.num_cores =
            static_cast<std::uint32_t>(getInt("cores", 0, UINT32_MAX));
    if (has("model"))
        base.model = cpu::parseConsistencyModel(get("model"));
    if (has("spec")) {
        const std::string mode = get("spec");
        if (mode == "off") {
            base.spec.mode = spec::SpecMode::Off;
        } else if (mode == "on-demand") {
            base.spec.mode = spec::SpecMode::OnDemand;
        } else if (mode == "continuous") {
            base.spec.mode = spec::SpecMode::Continuous;
        } else {
            fatal("unknown speculation mode '", mode, "'");
        }
    }
    if (has("granularity")) {
        const std::string g = get("granularity");
        if (g == "block") {
            base.spec.granularity = spec::Granularity::Block;
        } else if (g == "per-store") {
            base.spec.granularity = spec::Granularity::PerStore;
        } else {
            fatal("unknown granularity '", g, "'");
        }
    }
    if (has("overflow")) {
        const std::string p = get("overflow");
        if (p == "stall") {
            base.spec.overflow = spec::OverflowPolicy::Stall;
        } else if (p == "rollback") {
            base.spec.overflow = spec::OverflowPolicy::Rollback;
        } else {
            fatal("unknown overflow policy '", p, "'");
        }
    }
    if (has("sb-size"))
        base.sb_size = static_cast<unsigned>(getInt("sb-size", 0, UINT_MAX));
    if (has("l1-kb"))
        base.l1.size = getInt("l1-kb", 0, UINT64_MAX / 1024) * 1024;
    if (has("l2-kb"))
        base.l2.size = getInt("l2-kb", 0, UINT64_MAX / 1024) * 1024;
    if (has("dram-latency"))
        base.l2.dram_latency = getInt("dram-latency", 0);
    if (has("net-latency"))
        base.net.latency = getInt("net-latency", 0);
    if (has("topology")) {
        // Unknown topology is fatal, like --model: silently simulating
        // a different interconnect would invalidate the whole run.
        mem::Topology t;
        if (!mem::parseTopology(get("topology"), t))
            fatal("unknown topology '", get("topology"),
                  "' (crossbar|ring|mesh)");
        base.net.topology = t;
    }
    if (has("hop-latency"))
        base.net.hop_latency = getInt("hop-latency", 0);
    if (has("dir-banks"))
        base.dir_banks =
            static_cast<std::uint32_t>(getInt("dir-banks", 1, UINT32_MAX));
    if (has("trace")) {
        std::uint32_t mask = 0;
        std::string error;
        if (!trace::parseFlags(get("trace"), mask, error))
            fatal("--trace: ", error);
        base.trace_mask = mask;
    } else if (has("trace-out")) {
        // An output file without an explicit flag set means "record
        // everything": the common quick-look invocation.
        base.trace_mask =
            static_cast<std::uint32_t>(trace::Flag::All);
    }
    if (has("stats-interval"))
        base.stats_interval = getInt("stats-interval", 0);
    if (profiling())
        base.profile = true;
    if (has("blackbox"))
        base.blackbox_records = static_cast<std::size_t>(getInt(
            "blackbox", 0, trace::TraceSink::max_ring_records));
    if (has("watchdog-interval"))
        base.watchdog_interval = getInt("watchdog-interval", 0);
    if (has("watchdog-storm"))
        base.watchdog_storm = getInt("watchdog-storm", 0);
    // --tail-report / --outliers-out imply span tracing at the default
    // period; --tail-sample=N sets the period explicitly (1 = every
    // miss).  Off by default: the sanctioned outputs must stay
    // byte-identical when no tail option is given.
    if (has("tail-sample") || has("tail-report") ||
        has("outliers-out") || has("outliers")) {
        base.tail_sample = getInt("tail-sample", 64);
        if (base.tail_sample == 0) {
            std::cerr << "warning: --tail-sample=0 disables span "
                         "tracing; tail outputs will be empty\n";
        }
        base.tail_outliers = static_cast<std::uint32_t>(
            getInt("outliers", 10, UINT32_MAX));
    }
    if (const std::string bad = base.check(); !bad.empty())
        fatal(bad);
    return base;
}

void
Options::printUsage(const std::string &prog)
{
    constexpr std::size_t help_column = 24;
    std::cout << "usage: " << prog << " [options]\n";
    for (const OptionSpec &o : option_table) {
        std::string help = o.help;
        if (std::string(o.name) == "trace")
            help += " (" + trace::validFlagNames() + ")";
        std::string line = std::string("  --") + o.name + o.value;
        if (!help.empty())
            line.resize(std::max(line.size() + 1, help_column), ' ');
        for (const char c : help) {
            line += c;
            if (c == '\n')
                line.append(help_column, ' ');
        }
        std::cout << line << "\n";
    }
}

} // namespace fenceless::harness
