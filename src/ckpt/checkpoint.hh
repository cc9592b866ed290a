/**
 * @file
 * Crash-safe checkpoint files: format, validation, atomic publication.
 *
 * A checkpoint is a single binary file:
 *
 *     offset  size  field
 *     0       8     magic "GETMCKPT"
 *     8       4     format version (formatVersion)
 *     12      8     config hash (provenance fields + workload tag)
 *     20      8     simulated cycle the snapshot was taken at
 *     28      8     payload size in bytes
 *     36      n     payload (ckpt/serial.hh archive bytes)
 *     36+n    4     CRC-32 (poly 0xEDB88320) over bytes [0, 36+n)
 *
 * Decoding validates in a fixed order, each failure a typed
 * SimError(SimErrorKind::Checkpoint) with a distinct diagnostic:
 * bad magic, truncated/oversized body, CRC mismatch (bit flips),
 * version skew, then config-hash mismatch (snapshot from a different
 * configuration or workload). A checkpoint that decodes is exactly the
 * bytes that were written.
 *
 * Durability discipline: files are written to "<path>.tmp" and
 * std::rename()d into place, so a reader never observes a partial
 * file. A one-line "latest.ckpt" pointer file in the checkpoint
 * directory names the newest snapshot and is republished (also via
 * temp+rename) after every checkpoint; killing the writer at any
 * instant leaves either the previous pointer or the new one, never a
 * torn file. See docs/DURABILITY.md.
 */

#ifndef GETM_CKPT_CHECKPOINT_HH
#define GETM_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace getm::ckpt {

/** Bumped whenever the header or any ckpt() field list changes. */
inline constexpr std::uint32_t formatVersion = 8;

/** Name of the pointer file inside a checkpoint directory. */
inline constexpr const char *latestPointerName = "latest.ckpt";

/**
 * One snapshot: guard fields plus the raw archive payload. The payload
 * is borrowed, not owned: writeSnapshot() streams it from the caller's
 * archive buffer and decode() points it into the file bytes it was
 * given, so neither a save nor a restore copies it.
 */
struct Snapshot
{
    std::uint64_t configHash = 0;
    std::uint64_t cycle = 0;
    std::string_view payload;
};

/**
 * CRC-32 (reflected, poly 0xEDB88320), zlib-compatible, sliced 16
 * bytes at a time. Pass the CRC of the preceding bytes as @p crc to
 * carry it across pieces: crc32(b, crc32(a)) == crc32(a + b).
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t crc = 0);

/** Render a snapshot as complete file bytes (header+payload+CRC). */
std::string encode(const Snapshot &snap);

/**
 * Parse and validate file bytes. @p expectedConfigHash guards against
 * restoring into the wrong configuration; @p what names the source in
 * diagnostics (usually the file path). The returned payload views
 * @p bytes, which must outlive it. Throws
 * SimError(SimErrorKind::Checkpoint) on any defect.
 */
Snapshot decode(const std::string &bytes, std::uint64_t expectedConfigHash,
                const std::string &what);
/** A temporary would leave the decoded payload dangling. */
Snapshot decode(std::string &&bytes, std::uint64_t expectedConfigHash,
                const std::string &what) = delete;

/** Write @p pieces back to back to "<path>.tmp", flush, then rename
 *  into place. */
void writeAtomic(const std::string &path,
                 std::initializer_list<std::string_view> pieces);

/** Read a whole file in one call; throws SimError(Checkpoint) if
 *  unreadable. */
std::string readFile(const std::string &path);

/** "ckpt-<cycle padded to 12>.ckpt" (sorts in cycle order). */
std::string snapshotFileName(std::uint64_t cycle);

/**
 * Stream @p snap's header, payload and CRC trailer into
 * "<dir>/ckpt-<cycle>.ckpt" (creating @p dir if needed; the bytes are
 * exactly encode(snap)) and republish the latest.ckpt pointer. Returns
 * the path written.
 */
std::string writeSnapshot(const std::string &dir, const Snapshot &snap);

/**
 * Accepts either a snapshot file or a checkpoint directory; for a
 * directory, follows its latest.ckpt pointer. Throws
 * SimError(Checkpoint) when nothing restorable is there.
 */
std::string resolveRestorePath(const std::string &pathOrDir);

} // namespace getm::ckpt

#endif // GETM_CKPT_CHECKPOINT_HH
