#include "ckpt/checkpoint.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/sim_error.hh"

namespace getm::ckpt {

namespace {

constexpr char magic[8] = {'G', 'E', 'T', 'M', 'C', 'K', 'P', 'T'};
constexpr std::size_t headerSize = 8 + 4 + 8 + 8 + 8;
constexpr std::size_t trailerSize = 4;

/** Slice-by-16 tables: row k maps a byte to the CRC contribution it
 *  makes when k zero bytes follow it, so row 0 is the bytewise table. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (std::size_t i = 0; i < 256; ++i)
            tables[k][i] = (tables[k - 1][i] >> 8) ^
                           tables[0][tables[k - 1][i] & 0xFF];
    return tables;
}

constexpr CrcTables crcTables = makeCrcTables();

/** Little-endian 32-bit load (one mov on x86; endian-neutral). */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

/** The bytes around a payload: file = header + payload + trailer. */
struct Frame
{
    std::array<char, headerSize> header;
    std::array<char, trailerSize> trailer;

    std::string_view
    headerBytes() const
    {
        return {header.data(), header.size()};
    }

    std::string_view
    trailerBytes() const
    {
        return {trailer.data(), trailer.size()};
    }
};

/** Build @p snap's header and its CRC trailer, the CRC carried from
 *  the header across the payload. */
Frame
frame(const Snapshot &snap)
{
    Frame f;
    char *out = f.header.data();
    const auto put = [&out](const void *data, std::size_t size) {
        std::memcpy(out, data, size);
        out += size;
    };
    put(magic, sizeof(magic));
    const std::uint32_t version = formatVersion;
    put(&version, sizeof(version));
    put(&snap.configHash, sizeof(snap.configHash));
    put(&snap.cycle, sizeof(snap.cycle));
    const std::uint64_t payload_size = snap.payload.size();
    put(&payload_size, sizeof(payload_size));
    const std::uint32_t crc =
        crc32(snap.payload.data(), snap.payload.size(),
              crc32(f.header.data(), f.header.size()));
    std::memcpy(f.trailer.data(), &crc, sizeof(crc));
    return f;
}

template <class T>
T
readAt(const std::string &bytes, std::size_t offset)
{
    T value;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
}

[[noreturn]] void
fail(const std::string &what, const std::string &why)
{
    throw SimError(SimErrorKind::Checkpoint,
                   "checkpoint " + what + ": " + why);
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t crc)
{
    const CrcTables &t = crcTables;
    const auto *p = static_cast<const unsigned char *>(data);
    crc = ~crc;
    for (; size >= 16; size -= 16, p += 16) {
        const std::uint32_t a = loadLe32(p) ^ crc;
        const std::uint32_t b = loadLe32(p + 4);
        const std::uint32_t c = loadLe32(p + 8);
        const std::uint32_t d = loadLe32(p + 12);
        crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
              t[13][(a >> 16) & 0xFF] ^ t[12][a >> 24] ^
              t[11][b & 0xFF] ^ t[10][(b >> 8) & 0xFF] ^
              t[9][(b >> 16) & 0xFF] ^ t[8][b >> 24] ^
              t[7][c & 0xFF] ^ t[6][(c >> 8) & 0xFF] ^
              t[5][(c >> 16) & 0xFF] ^ t[4][c >> 24] ^
              t[3][d & 0xFF] ^ t[2][(d >> 8) & 0xFF] ^
              t[1][(d >> 16) & 0xFF] ^ t[0][d >> 24];
    }
    for (; size > 0; --size, ++p)
        crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

std::string
encode(const Snapshot &snap)
{
    const Frame f = frame(snap);
    std::string out;
    out.reserve(headerSize + snap.payload.size() + trailerSize);
    out += f.headerBytes();
    out += snap.payload;
    out += f.trailerBytes();
    return out;
}

Snapshot
decode(const std::string &bytes, std::uint64_t expectedConfigHash,
       const std::string &what)
{
    if (bytes.size() < headerSize + trailerSize)
        fail(what, "truncated (only " + std::to_string(bytes.size()) +
                       " bytes, header alone needs " +
                       std::to_string(headerSize + trailerSize) + ")");
    if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        fail(what, "bad magic (not a GETM checkpoint file)");

    const auto payload_size = readAt<std::uint64_t>(bytes, 28);
    const std::uint64_t expect_total =
        headerSize + payload_size + trailerSize;
    if (bytes.size() < expect_total)
        fail(what, "truncated (header declares " +
                       std::to_string(payload_size) +
                       " payload bytes, file holds " +
                       std::to_string(bytes.size() - headerSize -
                                      trailerSize) + ")");
    if (bytes.size() > expect_total)
        fail(what, "corrupt (trailing garbage after declared payload)");

    const std::uint32_t stored_crc =
        readAt<std::uint32_t>(bytes, bytes.size() - trailerSize);
    const std::uint32_t actual_crc =
        crc32(bytes.data(), bytes.size() - trailerSize);
    if (stored_crc != actual_crc) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "CRC mismatch (stored %08x, computed %08x)",
                      stored_crc, actual_crc);
        fail(what, buf);
    }

    const auto version = readAt<std::uint32_t>(bytes, 8);
    if (version != formatVersion)
        fail(what, "format version skew (file v" +
                       std::to_string(version) + ", this build reads v" +
                       std::to_string(formatVersion) + ")");

    Snapshot snap;
    snap.configHash = readAt<std::uint64_t>(bytes, 12);
    snap.cycle = readAt<std::uint64_t>(bytes, 20);
    if (snap.configHash != expectedConfigHash) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "config mismatch (snapshot %016llx, this run "
                      "%016llx) -- wrong workload or configuration",
                      static_cast<unsigned long long>(snap.configHash),
                      static_cast<unsigned long long>(expectedConfigHash));
        fail(what, buf);
    }
    snap.payload = std::string_view(bytes).substr(
        headerSize, static_cast<std::size_t>(payload_size));
    return snap;
}

void
writeAtomic(const std::string &path,
            std::initializer_list<std::string_view> pieces)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            fail(path, "cannot open temp file for writing");
        for (const std::string_view piece : pieces)
            os.write(piece.data(),
                     static_cast<std::streamsize>(piece.size()));
        os.flush();
        if (!os)
            fail(path, "short write to temp file");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fail(path, "rename from temp file failed");
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        fail(path, "cannot open for reading");
    const std::streamoff size = is.tellg();
    if (size < 0)
        fail(path, "read error");
    std::string bytes(static_cast<std::size_t>(size), '\0');
    is.seekg(0);
    is.read(bytes.data(), static_cast<std::streamsize>(size));
    if (is.gcount() != size)
        fail(path, "read error");
    return bytes;
}

std::string
snapshotFileName(std::uint64_t cycle)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "ckpt-%012llu.ckpt",
                  static_cast<unsigned long long>(cycle));
    return buf;
}

std::string
writeSnapshot(const std::string &dir, const Snapshot &snap)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fail(dir, "cannot create checkpoint directory (" +
                      ec.message() + ")");
    const std::string name = snapshotFileName(snap.cycle);
    const std::string path = dir + "/" + name;
    const Frame f = frame(snap);
    writeAtomic(path, {f.headerBytes(), snap.payload, f.trailerBytes()});
    writeAtomic(dir + "/" + latestPointerName, {name + "\n"});
    return path;
}

std::string
resolveRestorePath(const std::string &pathOrDir)
{
    std::error_code ec;
    if (std::filesystem::is_directory(pathOrDir, ec)) {
        const std::string pointer =
            pathOrDir + "/" + latestPointerName;
        if (!std::filesystem::exists(pointer, ec))
            fail(pathOrDir,
                 "directory holds no latest.ckpt pointer (no "
                 "checkpoint was ever completed there)");
        std::string name = readFile(pointer);
        while (!name.empty() &&
               (name.back() == '\n' || name.back() == '\r'))
            name.pop_back();
        if (name.empty() || name.find('/') != std::string::npos)
            fail(pointer, "latest.ckpt pointer is malformed");
        return pathOrDir + "/" + name;
    }
    return pathOrDir;
}

} // namespace getm::ckpt
