/**
 * @file
 * Tests for the key=value configuration-file parser and the protocol
 * names both CLIs accept.
 */

#include <gtest/gtest.h>

#include "gpu/config_file.hh"

namespace getm {
namespace {

TEST(ConfigFile, AppliesKnownKeys)
{
    GpuConfig cfg = GpuConfig::gtx480();
    std::string error;
    const bool ok = applyConfigText(
        "# comment\n"
        "cores = 8\n"
        "partitions=4   # trailing comment\n"
        "getm_granule = 64\n"
        "tx_warp_limit = 0\n"
        "llc_kb_per_partition = 256\n"
        "seed = 0x10\n",
        cfg, error);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(cfg.numCores, 8u);
    EXPECT_EQ(cfg.numPartitions, 4u);
    EXPECT_EQ(cfg.getmGranule, 64u);
    EXPECT_EQ(cfg.core.txWarpLimit, 0xffffffffu); // 0 = unlimited
    EXPECT_EQ(cfg.llcBytesPerPartition, 256u * 1024);
    EXPECT_EQ(cfg.seed, 16u);
}

TEST(ConfigFile, RejectsUnknownKey)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("coers = 8\n", cfg, error));
    EXPECT_NE(error.find("unknown key"), std::string::npos);
    EXPECT_NE(error.find("coers"), std::string::npos);
    // The removed parallel-loop knobs must fail loudly, not be ignored.
    for (const char *text : {"sim_threads = 4\n", "sim_epoch = 8\n"}) {
        EXPECT_FALSE(applyConfigText(text, cfg, error)) << text;
        EXPECT_NE(error.find("unknown key"), std::string::npos) << text;
    }
}

TEST(ConfigFile, RejectsMalformedLines)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_FALSE(applyConfigText("cores\n", cfg, error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_FALSE(applyConfigText("cores = twelve\n", cfg, error));
    // A value must be a whole number that fits its field.
    for (const char *text :
         {"cores = 3x\n", "cores = -1\n", "cores = 4294967296\n",
          "getm_max_registers = 2\n", "l1_kb = 18014398509481984\n",
          "seed = 99999999999999999999\n", "timeout_sec = abc\n",
          "timeout_sec = -1\n", "inject_prob = x\n", "inject_prob = 2\n"})
        EXPECT_FALSE(applyConfigText(text, cfg, error)) << text;
}

TEST(ConfigFile, EmptyAndCommentOnlyIsFine)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_TRUE(applyConfigText("\n  \n# nothing\n", cfg, error));
}

TEST(ConfigFile, RolloverZeroDisables)
{
    GpuConfig cfg;
    std::string error;
    ASSERT_TRUE(applyConfigText("rollover_threshold = 0\n", cfg, error));
    EXPECT_EQ(cfg.rolloverThreshold, ~static_cast<LogicalTs>(0));
    ASSERT_TRUE(applyConfigText("rollover_threshold = 100\n", cfg,
                                error));
    EXPECT_EQ(cfg.rolloverThreshold, 100u);
}

TEST(ConfigFile, ProvenanceRoundTrips)
{
    // Every key away from its gtx480() default.
    GpuConfig changed = GpuConfig::gtx480();
    changed.protocol = ProtocolKind::Eapg;
    std::string error;
    ASSERT_TRUE(applyConfigText("cores = 3\n"
                                "partitions = 5\n"
                                "warps_per_core = 16\n"
                                "tx_warp_limit = 2\n"
                                "issue_width = 2\n"
                                "l1_kb = 16\n"
                                "llc_kb_per_partition = 64\n"
                                "llc_latency = 100\n"
                                "line_bytes = 64\n"
                                "xbar_latency = 9\n"
                                "xbar_flit_bytes = 16\n"
                                "dram_latency = 300\n"
                                "dram_row_hit_latency = 90\n"
                                "dram_banks = 4\n"
                                "getm_granule = 64\n"
                                "getm_precise_entries = 2048\n"
                                "getm_bloom_entries = 512\n"
                                "getm_max_registers = 1\n"
                                "getm_stall_lines = 8\n"
                                "getm_stall_entries = 2\n"
                                "wtm_tcd_entries = 1024\n"
                                "rollover_threshold = 100\n"
                                "sample_interval = 256\n"
                                "hot_addrs = 4\n"
                                "seed = 9\n"
                                "trace_tx = 1\n"
                                "watchdog_cycles = 5000\n"
                                "check = serial\n"
                                "inject = leak-lock\n"
                                "inject_prob = 0.5\n"
                                "timeout_sec = 60\n",
                                changed, error))
        << error;
    const auto defaults = configProvenance(GpuConfig::gtx480());
    ASSERT_EQ(configProvenance(changed).size(), defaults.size());
    for (std::size_t i = 0; i < defaults.size(); ++i)
        EXPECT_NE(configProvenance(changed)[i], defaults[i])
            << defaults[i].first << " kept its default";

    // Each trip starts from the other config, so every value it reports
    // came back through the text. The protocol is no config key.
    const std::pair<GpuConfig, GpuConfig> trips[] = {
        {GpuConfig::gtx480(), changed}, {changed, GpuConfig::gtx480()}};
    for (const auto &[cfg, start] : trips) {
        const auto provenance = configProvenance(cfg);
        ASSERT_EQ(provenance.front().first, "protocol");
        std::string text;
        for (std::size_t i = 1; i < provenance.size(); ++i)
            text += provenance[i].first + " = " + provenance[i].second +
                    "\n";
        GpuConfig back = start;
        back.protocol = cfg.protocol;
        ASSERT_TRUE(applyConfigText(text, back, error)) << error;
        EXPECT_EQ(configProvenance(back), provenance);
    }
}

TEST(ConfigFile, MissingFileReportsError)
{
    GpuConfig cfg;
    std::string error;
    EXPECT_FALSE(loadConfigFile("/nonexistent/x.cfg", cfg, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ProtocolNames, ParseInvertsNameAndAcceptsAliases)
{
    for (ProtocolKind kind :
         {ProtocolKind::FgLock, ProtocolKind::Getm, ProtocolKind::WarpTmLL,
          ProtocolKind::WarpTmEL, ProtocolKind::Eapg})
        EXPECT_EQ(parseProtocol(protocolName(kind)), kind)
            << protocolName(kind);
    EXPECT_EQ(parseProtocol("warptm"), ProtocolKind::WarpTmLL);
    EXPECT_EQ(parseProtocol("el"), ProtocolKind::WarpTmEL);
    EXPECT_EQ(parseProtocol("lock"), ProtocolKind::FgLock);
    EXPECT_EQ(parseProtocol("getm"), ProtocolKind::Getm);
    EXPECT_EQ(parseProtocol("wArPtM-eL"), ProtocolKind::WarpTmEL);
    EXPECT_EQ(parseProtocol("LOCK"), ProtocolKind::FgLock);
    EXPECT_EQ(parseProtocol("tl2"), std::nullopt);
    EXPECT_EQ(parseProtocol("getm2"), std::nullopt);
    EXPECT_EQ(parseProtocol(""), std::nullopt);
}

} // namespace
} // namespace getm
