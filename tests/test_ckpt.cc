/**
 * @file
 * Checkpoint durability tests (docs/DURABILITY.md): the snapshot file
 * format must reject every class of damage -- truncation, bit flips,
 * format-version skew, wrong-configuration snapshots, trailing
 * garbage -- with a typed SimError(CHECKPOINT) carrying a structured
 * diagnostic, never a crash or a silent wrong restore. Also covers
 * the atomic-publication discipline (latest.ckpt pointer), the
 * archive round trip, and the end-to-end save/restore determinism
 * contract on a real simulation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "ckpt/serial.hh"
#include "common/sim_error.hh"
#include "core/getm_core_tm.hh"
#include "gpu/gpu_system.hh"
#include "workloads/workload.hh"

using namespace getm;

namespace {

/** Fresh scratch directory under the test binary's working dir. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "ckpt_test_scratch/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

ckpt::Snapshot
sampleSnapshot()
{
    ckpt::Snapshot snap;
    snap.configHash = 0x1122334455667788ull;
    snap.cycle = 4242;
    snap.payload = "the machine state goes here";
    return snap;
}

/** Decode @p bytes expecting SimError(CHECKPOINT); returns it. */
SimError
decodeExpectingError(const std::string &bytes,
                     std::uint64_t expected_hash)
{
    try {
        ckpt::decode(bytes, expected_hash, "test");
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Checkpoint);
        return e;
    }
    ADD_FAILURE() << "decode accepted a damaged checkpoint";
    return SimError(SimErrorKind::Internal, "no error");
}

/** Recompute and patch the trailing CRC after deliberate edits. */
void
fixCrc(std::string &bytes)
{
    const std::uint32_t crc =
        ckpt::crc32(bytes.data(), bytes.size() - 4);
    bytes.replace(bytes.size() - 4, 4,
                  reinterpret_cast<const char *>(&crc), 4);
}

} // namespace

// --------------------------------------------------------------------------
// File format: round trip and damage taxonomy
// --------------------------------------------------------------------------

TEST(CkptFormat, RoundTripPreservesEveryField)
{
    const ckpt::Snapshot snap = sampleSnapshot();
    const std::string bytes = ckpt::encode(snap);
    const ckpt::Snapshot back =
        ckpt::decode(bytes, snap.configHash, "roundtrip");
    EXPECT_EQ(back.configHash, snap.configHash);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_EQ(back.payload, snap.payload);
}

TEST(CkptFormat, TruncatedBelowHeaderIsTyped)
{
    const std::string bytes = ckpt::encode(sampleSnapshot());
    const SimError e =
        decodeExpectingError(bytes.substr(0, 10), 0);
    EXPECT_NE(e.diagnostic().message.find("truncated"),
              std::string::npos);
}

TEST(CkptFormat, TruncatedPayloadIsTyped)
{
    const std::string bytes = ckpt::encode(sampleSnapshot());
    const SimError e = decodeExpectingError(
        bytes.substr(0, bytes.size() - 8),
        sampleSnapshot().configHash);
    EXPECT_NE(e.diagnostic().message.find("truncated"),
              std::string::npos);
}

TEST(CkptFormat, TrailingGarbageIsTyped)
{
    std::string bytes = ckpt::encode(sampleSnapshot());
    bytes += "extra";
    const SimError e =
        decodeExpectingError(bytes, sampleSnapshot().configHash);
    EXPECT_NE(e.diagnostic().message.find("trailing"),
              std::string::npos);
}

TEST(CkptFormat, BadMagicIsTyped)
{
    std::string bytes = ckpt::encode(sampleSnapshot());
    bytes[0] = 'X';
    const SimError e =
        decodeExpectingError(bytes, sampleSnapshot().configHash);
    EXPECT_NE(e.diagnostic().message.find("magic"),
              std::string::npos);
}

TEST(CkptFormat, BitFlipFailsCrc)
{
    // Flip one payload bit: the CRC over the whole file must catch it
    // before any field is trusted.
    std::string bytes = ckpt::encode(sampleSnapshot());
    bytes[40] = static_cast<char>(bytes[40] ^ 0x04);
    const SimError e =
        decodeExpectingError(bytes, sampleSnapshot().configHash);
    EXPECT_NE(e.diagnostic().message.find("CRC mismatch"),
              std::string::npos);
}

TEST(CkptFormat, VersionSkewIsTyped)
{
    // Bump the format version field and repair the CRC, simulating a
    // snapshot from a future build: the version check must reject it
    // (the CRC alone cannot -- the file is internally consistent).
    std::string bytes = ckpt::encode(sampleSnapshot());
    const std::uint32_t future = ckpt::formatVersion + 7;
    bytes.replace(8, 4, reinterpret_cast<const char *>(&future), 4);
    fixCrc(bytes);
    const SimError e =
        decodeExpectingError(bytes, sampleSnapshot().configHash);
    EXPECT_NE(e.diagnostic().message.find("version skew"),
              std::string::npos);
}

TEST(CkptFormat, WrongConfigHashIsTyped)
{
    const std::string bytes = ckpt::encode(sampleSnapshot());
    const SimError e = decodeExpectingError(
        bytes, sampleSnapshot().configHash ^ 1);
    EXPECT_NE(e.diagnostic().message.find("config mismatch"),
              std::string::npos);
}

TEST(CkptFormat, Crc32KnownAnswers)
{
    EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(ckpt::crc32(nullptr, 0), 0u);

    // The sliced CRC must agree with the bit-serial definition
    // at every length around its 16-byte stride and every alignment.
    const auto reference = [](const unsigned char *p, std::size_t n) {
        std::uint32_t crc = 0xFFFFFFFFu;
        for (std::size_t i = 0; i < n; ++i) {
            crc ^= p[i];
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        }
        return crc ^ 0xFFFFFFFFu;
    };
    std::vector<unsigned char> data((5 << 20) + 77);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (unsigned char &byte : data) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        byte = static_cast<unsigned char>(x);
    }
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 64; ++len)
            EXPECT_EQ(ckpt::crc32(data.data() + offset, len),
                      reference(data.data() + offset, len))
                << "offset " << offset << " length " << len;
    const std::uint32_t whole = ckpt::crc32(data.data(), data.size());
    EXPECT_EQ(whole, reference(data.data(), data.size()));

    // Carried across split pieces, it equals the one-shot CRC.
    for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                    std::size_t{36}, std::size_t{4099},
                                    data.size()}) {
        const std::uint32_t head = ckpt::crc32(data.data(), split);
        EXPECT_EQ(ckpt::crc32(data.data() + split, data.size() - split,
                              head),
                  whole)
            << "split at " << split;
    }
}

// --------------------------------------------------------------------------
// Atomic publication and the latest.ckpt pointer
// --------------------------------------------------------------------------

TEST(CkptFiles, WriteSnapshotPublishesLatestPointer)
{
    const std::string dir = scratchDir("publish");
    ckpt::Snapshot snap = sampleSnapshot();
    const std::string first = ckpt::writeSnapshot(dir, snap);
    EXPECT_EQ(ckpt::resolveRestorePath(dir), first);

    snap.cycle = 9000;
    const std::string second = ckpt::writeSnapshot(dir, snap);
    EXPECT_NE(second, first);
    // The pointer always names the newest snapshot; the older file
    // stays on disk and restorable by explicit path.
    EXPECT_EQ(ckpt::resolveRestorePath(dir), second);
    const std::string first_bytes = ckpt::readFile(first);
    const ckpt::Snapshot back =
        ckpt::decode(first_bytes, snap.configHash, first);
    EXPECT_EQ(back.cycle, 4242u);
    // No .tmp intermediates survive an orderly publication.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".tmp");
}

TEST(CkptFiles, StreamedFileMatchesEncode)
{
    // writeSnapshot streams header, payload and trailer to the file
    // piece by piece; the published bytes must be exactly encode()'s.
    const std::string dir = scratchDir("streamed");
    std::string payload(3 << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>((i * 2654435761u) >> 13);
    ckpt::Snapshot snap = sampleSnapshot();
    snap.payload = payload;

    const std::string path = ckpt::writeSnapshot(dir, snap);
    const std::string bytes = ckpt::readFile(path);
    EXPECT_TRUE(bytes == ckpt::encode(snap));
    const ckpt::Snapshot back = ckpt::decode(bytes, snap.configHash, path);
    EXPECT_EQ(back.configHash, snap.configHash);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_TRUE(back.payload == snap.payload);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CkptFiles, EmptyDirectoryHasNothingRestorable)
{
    const std::string dir = scratchDir("empty");
    try {
        ckpt::resolveRestorePath(dir);
        ADD_FAILURE() << "resolved a restore path in an empty dir";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Checkpoint);
    }
}

// --------------------------------------------------------------------------
// Archive layer
// --------------------------------------------------------------------------

TEST(CkptSerial, UnorderedContainersRoundTripInOrder)
{
    // The archive pins unordered-container iteration order, not just
    // contents: a restored table must visit elements exactly as the
    // saving run would have, or downstream tie-breaks diverge.
    std::unordered_map<std::uint64_t, std::string> map;
    for (std::uint64_t i = 0; i < 100; ++i)
        map.emplace(i * 0x9e3779b97f4a7c15ull, std::to_string(i));
    std::vector<std::pair<std::uint64_t, std::string>> saved_order(
        map.begin(), map.end());

    ckpt::Writer w;
    w(map);
    const std::string bytes = w.take();
    std::unordered_map<std::uint64_t, std::string> back;
    ckpt::Reader r(bytes.data(), bytes.size());
    r(back);
    EXPECT_EQ(r.remaining(), 0u);
    const std::vector<std::pair<std::uint64_t, std::string>>
        restored_order(back.begin(), back.end());
    EXPECT_EQ(restored_order, saved_order);
}

TEST(CkptSerial, LaneGrantTableRoundTripsPresenceAndOrder)
{
    // GETM's commit point walks each aborted lane's grants in map
    // order, so a restored grant table must keep every lane map's
    // iteration order and which lanes hold a map at all. Lane 3 grows
    // through several rehashes, lane 7 holds an emptied map, and lane 0
    // of the restoring table must lose its stale map.
    LaneGrantTable table;
    for (Addr g = 0; g < 40; ++g)
        table[3][g * 0x1a0 + 0x20] += static_cast<std::uint32_t>(g + 1);
    table[7][0x40] = 1;
    table[7].clear();
    ckpt::Writer w;
    w(table);
    const std::string bytes = w.take();

    LaneGrantTable back;
    back[0][0x80] = 2;
    ckpt::Reader r(bytes.data(), bytes.size());
    r(back);
    EXPECT_EQ(r.remaining(), 0u);
    using Entries = std::vector<std::pair<Addr, std::uint32_t>>;
    EXPECT_EQ(Entries(back.forLane(3).begin(), back.forLane(3).end()),
              Entries(table.forLane(3).begin(), table.forLane(3).end()));
    ckpt::Writer again;
    again(back);
    EXPECT_EQ(again.take(), bytes);
}

TEST(CkptSerial, EmptyContainersRoundTrip)
{
    // Empty containers restore to empty without touching their (possibly
    // null) storage, and leave the cursor on the next field.
    std::vector<std::uint32_t> words;
    std::string text;
    std::deque<std::uint64_t> queue;
    std::uint32_t tail = 0xfeedu;
    ckpt::Writer w;
    w(words, text, queue, tail);
    const std::string bytes = w.take();
    EXPECT_EQ(bytes.size(), 3 * sizeof(std::uint64_t) + sizeof(tail));

    std::vector<std::uint32_t> words_back;
    std::string text_back = "stale";
    std::deque<std::uint64_t> queue_back{1, 2};
    std::uint32_t tail_back = 0;
    ckpt::Reader r(bytes.data(), bytes.size());
    r(words_back, text_back, queue_back, tail_back);
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_TRUE(words_back.empty());
    EXPECT_TRUE(text_back.empty());
    EXPECT_TRUE(queue_back.empty());
    EXPECT_EQ(tail_back, 0xfeedu);
}

// --------------------------------------------------------------------------
// End to end: a real machine snapshot
// --------------------------------------------------------------------------

namespace {

/** Tiny ATM run with checkpointing knobs applied. */
RunResult
runRig(GpuConfig cfg, double scale = 0.02)
{
    cfg.core.txWarpLimit =
        optimalConcurrency(BenchId::Atm, cfg.protocol);
    GpuSystem gpu(cfg);
    auto workload = makeWorkload(BenchId::Atm, scale, 7);
    workload->setup(gpu, cfg.protocol == ProtocolKind::FgLock);
    return gpu.run(workload->kernel(), workload->numThreads());
}

} // namespace

TEST(CkptSystem, RestoredRunMatchesUninterrupted)
{
    const std::string dir = scratchDir("system");
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;

    const RunResult base = runRig(cfg);
    ASSERT_GT(base.cycles, 400u);

    GpuConfig save_cfg = cfg;
    save_cfg.ckptEvery = 300;
    save_cfg.ckptDir = dir;
    const RunResult saved = runRig(save_cfg);
    EXPECT_EQ(saved.cycles, base.cycles);
    EXPECT_EQ(saved.commits, base.commits);
    ASSERT_TRUE(std::filesystem::exists(
        dir + "/" + ckpt::latestPointerName));

    GpuConfig restore_cfg = cfg;
    restore_cfg.restorePath = dir;
    const RunResult restored = runRig(restore_cfg);
    EXPECT_EQ(restored.cycles, base.cycles);
    EXPECT_EQ(restored.commits, base.commits);
    EXPECT_EQ(restored.aborts, base.aborts);
    EXPECT_EQ(restored.xbarFlits, base.xbarFlits);
}

TEST(CkptSystem, WrongWorkloadConfigurationRefusesToRestore)
{
    const std::string dir = scratchDir("skew");
    GpuConfig cfg = GpuConfig::testRig();
    cfg.protocol = ProtocolKind::Getm;
    cfg.ckptEvery = 300;
    cfg.ckptDir = dir;
    runRig(cfg);

    // Same snapshot, different protocol: the config hash covers the
    // full provenance, so the restore must throw rather than load a
    // GETM machine image into a WarpTM one.
    GpuConfig other = GpuConfig::testRig();
    other.protocol = ProtocolKind::WarpTmLL;
    other.restorePath = dir;
    try {
        runRig(other);
        ADD_FAILURE() << "restored a snapshot from another protocol";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Checkpoint);
        EXPECT_NE(e.diagnostic().message.find("config mismatch"),
                  std::string::npos);
    }
}
