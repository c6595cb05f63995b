/**
 * @file
 * Machine-readable JSON rendering of the statistics registry.
 *
 * `--stats-json=<file>` dumps the full StatRegistry -- every group,
 * every stat kind with its complete state (distributions with
 * n/mean/min/max/stdev, histograms with bucket counts and edges) -- so
 * the bench harness and CI can diff runs without scraping text tables.
 *
 * Shape:
 *
 *     {
 *       "schema_version": 1,
 *       "groups": {
 *         "l1_0": {
 *           "l1_0.misses": {"kind": "scalar", "value": 42},
 *           "l1_0.miss_latency": {"kind": "distribution", "n": 42,
 *             "mean": 103.5, "min": 88, "max": 240, "stdev": 12.1},
 *           ...
 *         },
 *         ...
 *       },
 *       "schema": {
 *         "l1_0.misses": {"kind": "scalar", "unit": "count",
 *           "desc": "accesses taking the miss path"},
 *         ...
 *       }
 *     }
 *
 * The document is self-describing: `schema_version` names the layout
 * (cross-run consumers such as tools/fl_report refuse versions they do
 * not understand), and the `schema` object maps every stat to its
 * kind, unit and one-line description so a saved JSON file remains
 * interpretable without the binary that produced it.
 */

#pragma once

#include <iosfwd>
#include <string>

#include "base/stats.hh"

namespace fenceless::statistics
{

/**
 * Version of the stats-JSON document layout.  Bumped whenever a field
 * changes meaning or moves; purely-additive fields do not require a
 * bump.  History:
 *   1  first self-describing layout (schema_version + per-stat
 *      unit/desc schema section, PR 9).
 *   2  distributions gain "p999" (tail-latency observability, PR 10).
 *      Additive, but bumped anyway so consumers that *require* p999
 *      can tell old artifacts apart; loaders accept [1, 2].
 *   3  snapshots carry live network counters (they read zero before:
 *      the network group was folded only at end of run), network.msgs
 *      and network.bytes count messages sent, and the provenance
 *      sim_mode stanza drops its constant parallel_sim and shards
 *      fields; loaders accept [1, 3].
 */
constexpr int stats_schema_version = 3;

/**
 * Unit of a stat, derived from the registry's naming conventions --
 * the single source of truth for what the numbers mean, kept here so
 * every JSON consumer shares one table instead of each hardcoding its
 * own guesses.  Returns e.g. "cycles", "messages", "bytes"; "count"
 * when no convention matches.
 */
const char *statUnit(const Stat &stat);

/** Escape a string for embedding in a JSON document (adds quotes). */
std::string jsonQuote(const std::string &s);

/** Render one stat (any kind) as a JSON object. */
void printJson(std::ostream &os, const Stat &stat);

/** Render a whole group as a JSON object keyed by stat name. */
void printJson(std::ostream &os, const StatGroup &group);

/**
 * Render the registry as the `"groups"` object described above.
 * Emits only the object, so callers can compose it into a larger
 * document (e.g. append snapshot time series).
 */
void printGroupsJson(std::ostream &os, const StatRegistry &registry);

/**
 * Render the self-describing `"schema"` object: every stat name
 * mapped to {kind, unit, desc}.  Emitted once per document (never in
 * snapshots -- the schema cannot change mid-run).
 */
void printSchemaJson(std::ostream &os, const StatRegistry &registry);

/**
 * Render the registry as a complete self-describing document:
 * `{"schema_version": ..., "groups": ..., "schema": ...}`.
 */
void printJson(std::ostream &os, const StatRegistry &registry);

} // namespace fenceless::statistics
