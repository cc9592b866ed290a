/**
 * @file
 * Tests for the Chrome-trace transaction timeline recorder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "gpu/gpu_system.hh"
#include "obs/timeline.hh"
#include "isa/kernel_builder.hh"

namespace getm {
namespace {

TEST(Timeline, JsonShape)
{
    Timeline timeline;
    timeline.begin(0, 3, "tx", 100);
    timeline.instant(0, 3, "abort", 150);
    timeline.end(0, 3, 200);
    const std::string json = timeline.toJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\",\"name\":\"tx\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"t\",\"name\":\"abort\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":100"), std::string::npos);
}

TEST(Timeline, RunProducesBalancedSpans)
{
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    const std::string path = "/tmp/getm_timeline_test.json";
    cfg.timelinePath = path;
    GpuSystem gpu(cfg);

    const Addr cells = gpu.memory().allocate(4 * 8);
    KernelBuilder kb("tl");
    const Reg tid(1), cell(2), addr(3), v(4);
    kb.readSpecial(tid, SpecialReg::ThreadId);
    kb.remui(cell, tid, 8);
    kb.shli(addr, cell, 2);
    kb.addi(addr, addr, static_cast<std::int64_t>(cells));
    kb.txBegin();
    kb.load(v, addr);
    kb.addi(v, v, 1);
    kb.store(addr, v);
    kb.txCommit();
    kb.exit();
    gpu.run(kb.build(), 128);

    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::string json((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    // Every attempt opens exactly one span and closes it.
    std::size_t begins = 0, ends = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos) {
        ++begins;
        pos += 8;
    }
    pos = 0;
    while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos) {
        ++ends;
        pos += 8;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    std::remove(path.c_str());
}

} // namespace
} // namespace getm
