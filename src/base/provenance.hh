/**
 * @file
 * Build provenance stamped into every exported artefact.
 *
 * Stats JSON, waste profiles and blackbox dumps from different builds
 * are otherwise indistinguishable on disk; a week later nobody knows
 * which commit or build type produced a given file.  The build
 * system passes the git hash and build type as compile-time
 * definitions (see src/base/CMakeLists.txt).  The JSON form keeps an
 * empty "features" list: the build has no compile-time feature
 * switches, and the key keeps every artefact's layout stable.
 */

#pragma once

#include <iosfwd>
#include <string>

namespace fenceless::provenance
{

/** Abbreviated git commit hash of the build ("unknown" outside git). */
const char *gitHash();

/** CMake build type the binary was compiled as ("unknown" if unset). */
const char *buildType();

/**
 * The provenance block as one JSON object, e.g.
 * `{"git": "1a2b3c", "build_type": "Release", "features": []}`.
 * Embedded under a "provenance" key by every artefact writer.
 */
std::string jsonObject();

/** Stream form of jsonObject() for exporters that build JSON inline. */
void writeJsonObject(std::ostream &os);

/** One-line human-readable form for dossier / report headers. */
std::string oneLine();

} // namespace fenceless::provenance
