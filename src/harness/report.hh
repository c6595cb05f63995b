/**
 * @file
 * Reports rendered from a System: the tail report, the slowest-request
 * outliers, per-core architectural state and the stall dossier (which
 * includes the wait-for graph).  Each reads only System's const
 * accessors, so it can run after a run, from the watchdog, or from the
 * panic hook, and any tool holding a System produces the same bytes.
 */

#pragma once

#include <iosfwd>

#include "harness/system.hh"

namespace fenceless::harness
{

/**
 * Write the critical-path stage-attribution table: per-stage
 * contribution percentiles (p50/p95/p99/p99.9), cycle shares that
 * reconcile exactly with the spans' end-to-end latencies, and the
 * tail-ownership ranking (which stage dominates above-p99 spans).
 * No-op (with a notice) when span tracing was off.
 */
void writeTailReport(std::ostream &os, const System &sys);

/**
 * Write the top-K slowest-request dossiers as JSON: per-stage
 * timeline, symbolized issuing PC, home directory bank, and the
 * hottest link on the request's route (ring/mesh).  K is
 * `config.tail_outliers`; selection is ordered by (latency desc,
 * req id asc), so the document is deterministic.
 */
void writeOutliers(std::ostream &os, const System &sys);

/** One line per core: pc, retirement, sleep reason, store buffer, spec. */
void writeArchState(std::ostream &os, const System &sys);

/**
 * Write a stall dossier for the system's current state, stamped
 * @p tick: the watchdog verdict (if it fired), per-core architectural
 * state, the wait-for graph with deadlock cycles highlighted, and the
 * flight-recorder tail.  The watchdog passes its report's fire tick;
 * an on-demand caller passes curTick().
 */
void writeStallDossier(std::ostream &os, const System &sys, Tick tick);

} // namespace fenceless::harness
