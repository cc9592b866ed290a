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
