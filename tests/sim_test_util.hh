/**
 * @file
 * Shared helpers for system-level tests.
 */

#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "harness/system.hh"
#include "workload/workload.hh"

namespace fenceless::test
{

/**
 * Blank out what depends on the build rather than the run: the git id
 * and build type in every provenance object, and a dossier's "build:"
 * line.
 */
inline std::string
normalizeBuild(const std::string &text)
{
    std::string out = std::regex_replace(
        text, std::regex("\"git\": \"[^\"]*\""), "\"git\": \"<git>\"");
    out = std::regex_replace(out,
                             std::regex("\"build_type\": \"[^\"]*\""),
                             "\"build_type\": \"<build>\"");
    return std::regex_replace(out, std::regex("\nbuild: [^\n]*"),
                              "\nbuild: <build>");
}

/** Compare @p actual with the golden file tests/data/@p name. */
inline void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::string path = std::string(FENCELESS_TEST_DATA_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(actual, golden.str()) << "golden " << path;
}

/** A small, fast system configuration for tests. */
inline harness::SystemConfig
testConfig(std::uint32_t cores = 4,
           cpu::ConsistencyModel model = cpu::ConsistencyModel::TSO)
{
    harness::SystemConfig cfg;
    cfg.num_cores = cores;
    cfg.model = model;
    cfg.l1.size = 4 * 1024;
    cfg.l1.assoc = 4;
    cfg.l2.size = 256 * 1024;
    cfg.l2.assoc = 8;
    cfg.net.latency = 4;
    cfg.l2.dram_latency = 30;
    cfg.max_cycles = 50'000'000;
    return cfg;
}

/** Run @p wl under @p cfg; assert termination, postconditions, audit. */
inline void
runWorkload(workload::Workload &wl, harness::SystemConfig cfg)
{
    isa::Program prog = wl.build(cfg.num_cores);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run()) << wl.name() << " did not terminate";
    std::string error;
    EXPECT_TRUE(wl.check(sys.memReader(), cfg.num_cores, error))
        << error;
    sys.auditCoherence();
}

} // namespace fenceless::test
