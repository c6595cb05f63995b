/**
 * @file
 * Deadlock demo: seed a true cross-ownership deadlock with the
 * network's Fwd*Ack fault injection and let the hang watchdog catch
 * it.  Demonstrates the full incident pipeline from DESIGN.md section
 * 7.5: the watchdog detects that no core retires for a whole window,
 * builds the wait-for graph, names the deadlock cycle, prints the
 * stall dossier (with the flight-recorder tail), and the process
 * exits with code 4.
 *
 *   $ ./deadlock_demo [--watchdog-interval=N --blackbox-out=FILE]
 *   ... stall dossier on stdout ...
 *   $ echo $?
 *   4
 *
 * With `--healthy` the fault injection is skipped: the same program
 * runs to completion, verifies, and exits 0 -- showing the workload
 * itself is correct and the deadlock really is the injected fault.
 * The dossier goes to stdout (stderr carries the abort diagnostics),
 * so two runs can be compared byte-for-byte for determinism.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "harness/exit_codes.hh"
#include "harness/options.hh"
#include "harness/system.hh"
#include "sim/blackbox.hh"
#include "workload/microbench.hh"

using namespace fenceless;

int
main(int argc, char **argv)
{
    // --healthy is demo-specific, so strip it before Options (which
    // rejects unknown flags).
    bool healthy = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--healthy")
            healthy = true;
        else
            args.push_back(argv[i]);
    }
    harness::Options opts(static_cast<int>(args.size()), args.data());

    harness::SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.model = cpu::ConsistencyModel::TSO;
    // A short window keeps the demo snappy; the default (100k cycles)
    // is sized for full-length runs.
    cfg.watchdog_interval = 5000;
    cfg = opts.applyTo(cfg);

    workload::SeededDeadlock wl;
    isa::Program prog = wl.build(cfg.num_cores);
    if (!healthy) {
        // Drop the owner's Fwd*Ack for both cross-loaded blocks: the
        // two directory transactions wedge in their forward phase and
        // the cores deadlock waiting on each other's blocks.
        cfg.net.drop_fwd_acks_for = {wl.blockX(), wl.blockY()};
    }

    harness::System sys(cfg, prog);
    const bool done = sys.run();

    if (!bench::writeObservability(sys, opts))
        return harness::exit_fatal;

    if (!done) {
        // The watchdog already printed the dossier to stderr; repeat
        // it on stdout so scripts can capture it separately.
        if (sys.hung())
            std::cout << sys.dossier();
        else
            std::cerr << "cycle budget exhausted without a watchdog "
                         "abort\n";
        return harness::exit_hang;
    }

    std::string error;
    if (!wl.check(sys.memReader(), cfg.num_cores, error)) {
        std::cerr << "postcondition failed: " << error << "\n";
        trace::writeBlackboxTail(std::cerr, sys.tracer());
        return harness::exit_postcondition;
    }
    std::cout << "healthy run completed in " << sys.runtimeCycles()
              << " cycles and verified (no deadlock without the "
                 "fault injection)\n";
    return harness::exit_ok;
}
