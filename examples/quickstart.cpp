/**
 * @file
 * Quickstart: build a 4-core system, run a lock + streaming-store
 * workload under a baseline model and under the same model with fence
 * speculation, and compare.
 *
 *   $ ./quickstart [--cores=N --model=sc|tso|rmo --scale=K --csv]
 *
 * Observability quick-look (see DESIGN.md section 7.2): add
 * `--trace-out=run.json` for a Chrome trace-event timeline of the
 * speculative run (open in ui.perfetto.dev) and/or
 * `--stats-json=stats.json [--stats-interval=N]` for the machine-
 * readable stat registry.  Waste attribution (DESIGN.md section 7.4):
 * `--waste-report` prints the top-N table of wasted cycles by
 * instruction, contended cache lines and rollback causes for the
 * speculative run; `--profile-out=profile.json` writes the full
 * profile (plus profile.json.folded flamegraph stacks).
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "harness/options.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "sim/blackbox.hh"
#include "workload/microbench.hh"

using namespace fenceless;

int
main(int argc, char **argv)
{
    harness::Options opts(argc, argv);

    // 1. Describe the machine (tweak with --cores, --model, ...).
    harness::SystemConfig cfg;
    cfg.num_cores = 4;
    cfg.model = cpu::ConsistencyModel::TSO;
    cfg = opts.applyTo(cfg);

    // 2. Pick a workload: per-thread locks around private counters,
    // with streaming stores keeping the store buffer busy -- the
    // mostly-uncontended pattern where ordering stalls dominate.
    workload::LocalLockStream::Params params;
    params.iters = 128ULL * opts.scale();
    workload::LocalLockStream wl(params);

    harness::Table table({"configuration", "cycles", "instructions",
                          "IPC", "commits", "rollbacks"});

    for (bool speculative : {false, true}) {
        harness::SystemConfig run_cfg = cfg;
        if (speculative)
            run_cfg.withSpeculation();

        // 3. Build and run the system.  A hang exits with code 4
        // (the watchdog has already printed its stall dossier).
        isa::Program prog = wl.build(run_cfg.num_cores);
        harness::System sys(run_cfg, prog);
        if (!sys.run()) {
            std::cerr << (sys.hung()
                              ? "simulation hung (see dossier above)\n"
                              : "simulation did not terminate\n");
            return harness::exit_hang;
        }

        // 4. Verify the parallel program actually worked.  A failed
        // postcondition exits with code 3 and prints the flight-
        // recorder tail: the last events before the bad outcome.
        std::string error;
        if (!wl.check(sys.memReader(), run_cfg.num_cores, error)) {
            std::cerr << "postcondition failed: " << error << "\n";
            trace::writeBlackboxTail(std::cerr, sys.tracer());
            return harness::exit_postcondition;
        }

        // 5. The speculative run is the interesting timeline: write
        // any requested --trace-out / --stats-json artefacts from it.
        if (speculative && !bench::writeObservability(sys, opts))
            return 1;

        const double cycles =
            static_cast<double>(sys.runtimeCycles());
        const double insts =
            static_cast<double>(sys.totalInstructions());
        const std::string label =
            std::string(cpu::consistencyModelName(run_cfg.model))
            + (speculative ? " + fence speculation" : " baseline");
        table.addRow({label,
                      harness::fmt(cycles, 0), harness::fmt(insts, 0),
                      harness::fmt(insts / cycles, 3),
                      std::to_string(sys.totalCommits()),
                      std::to_string(sys.totalRollbacks())});
    }

    std::cout << "\nlocal-locks, " << cfg.num_cores << " cores, "
              << params.iters << " lock sections/core\n\n";
    if (opts.csv())
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\nFence speculation removes the ordering stalls at "
                 "the lock atomics\n(which must otherwise wait for the "
                 "streaming stores to drain); run the\nbench_* "
                 "binaries for the full evaluation.\n";
    return 0;
}
