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
#include <string>

namespace getm::ckpt {

/** Bumped whenever the header or any ckpt() field list changes. */
inline constexpr std::uint32_t formatVersion = 2;

/** Name of the pointer file inside a checkpoint directory. */
inline constexpr const char *latestPointerName = "latest.ckpt";

/** One decoded snapshot: guard fields plus the raw archive payload. */
struct Snapshot
{
    std::uint64_t configHash = 0;
    std::uint64_t cycle = 0;
    std::string payload;
};

/** CRC-32 (reflected, poly 0xEDB88320), zlib-compatible. */
std::uint32_t crc32(const void *data, std::size_t size);

/** Render a snapshot as complete file bytes (header+payload+CRC). */
std::string encode(const Snapshot &snap);

/**
 * Parse and validate file bytes. @p expectedConfigHash guards against
 * restoring into the wrong configuration; @p what names the source in
 * diagnostics (usually the file path). Throws
 * SimError(SimErrorKind::Checkpoint) on any defect.
 */
Snapshot decode(const std::string &bytes, std::uint64_t expectedConfigHash,
                const std::string &what);

/** Write bytes to "<path>.tmp" then rename into place. */
void writeAtomic(const std::string &path, const std::string &bytes);

/** Read a whole file; throws SimError(Checkpoint) if unreadable. */
std::string readFile(const std::string &path);

/** "ckpt-<cycle padded to 12>.ckpt" (sorts in cycle order). */
std::string snapshotFileName(std::uint64_t cycle);

/**
 * Encode @p snap into "<dir>/ckpt-<cycle>.ckpt" (creating @p dir if
 * needed) and republish the latest.ckpt pointer. Returns the path
 * written.
 */
std::string writeSnapshot(const std::string &dir, const Snapshot &snap);

/**
 * Accepts either a snapshot file or a checkpoint directory; for a
 * directory, follows its latest.ckpt pointer. Throws
 * SimError(Checkpoint) when nothing restorable is there.
 */
std::string resolveRestorePath(const std::string &pathOrDir);

/** readFile + decode in one step. */
Snapshot readSnapshot(const std::string &path,
                      std::uint64_t expectedConfigHash);

} // namespace getm::ckpt

#endif // GETM_CKPT_CHECKPOINT_HH
