/**
 * @file
 * Write-ahead log of taint-state mutations (DESIGN.md §11).
 *
 * Layout: a 20-byte header {magic "PWAL", version, epoch, header
 * CRC-32}, followed by length-prefixed record frames {u32 payload
 * length, u32 payload CRC-32, payload}. Each payload is one encoded
 * core::JournalRecord. The writer group-commits: frames collect in a
 * buffer that reaches the file in one write per flush() (at most
 * wal_commit_bytes at a time). Appends are sequential, so a crash
 * tears at most the final frame; the reader is tolerant by
 * construction — it accepts the longest valid prefix and reports
 * where and why it stopped, because a torn tail is the *expected*
 * crash outcome, not an error. A corrupt header, by contrast,
 * invalidates the whole file: without a trusted epoch the log cannot
 * be paired with a snapshot.
 */

#ifndef PIFT_PERSIST_WAL_HH
#define PIFT_PERSIST_WAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/journal.hh"
#include "support/expected.hh"

namespace pift::persist
{

/** WAL file magic: "PWAL" little-endian. */
inline constexpr uint32_t wal_magic = 0x4c415750u;

/** Current WAL wire-format version. */
inline constexpr uint16_t wal_version = 1;

/** Bytes in the WAL file header. */
inline constexpr size_t wal_header_bytes = 20;

/** Encoded size of one JournalRecord payload (version 1). */
inline constexpr size_t wal_payload_bytes = 46;

/** Bytes one framed record occupies (frame header + payload). */
inline constexpr size_t wal_frame_bytes = 8 + wal_payload_bytes;

/**
 * Buffered frame bytes at which a WalWriter commits on its own, so a
 * writer nobody flushes never holds an unbounded tail (DESIGN.md §11).
 */
inline constexpr size_t wal_commit_bytes = 64 * 1024;

/**
 * Encode one framed record (frame header + payload) into the
 * wal_frame_bytes bytes at @p out.
 */
void encodeWalFrame(const core::JournalRecord &rec, uint8_t *out);

/** Decode one record payload; fails on short input or bad enums. */
Expected<core::JournalRecord>
decodeJournalRecord(const std::string &payload);

/**
 * Append-only WAL file writer with a commit buffer. append() encodes
 * each frame into the buffer; flush() hands the buffer to the file in
 * one write(), as does an append that would take it past
 * wal_commit_bytes. All failures are sticky: after the first failed
 * write the writer drops further appends and healthy() stays false,
 * so one bad disk never half-writes interleaved frames.
 */
class WalWriter
{
  public:
    WalWriter() = default;
    ~WalWriter();

    WalWriter(const WalWriter &) = delete;
    WalWriter &operator=(const WalWriter &) = delete;

    /**
     * Create (truncate) the WAL at @p path and write its header,
     * after closing a previously open file (a failure there is
     * returned and leaves the writer broken).
     * @param epoch the snapshot epoch this log extends
     * @param flush_each flush after every append (durability per
     *        record) instead of only on flush()/close()
     */
    Status open(const std::string &path, uint64_t epoch,
                bool flush_each);

    /** Frame and buffer one record. No-op when not healthy. */
    Status append(const core::JournalRecord &rec);

    /** Commit the buffered frames to the file in one write. */
    Status flush();

    /** Flush and close. Safe to call twice. */
    Status close();

    /** False after any I/O failure (sticky). */
    bool healthy() const { return !broken; }

  private:
    Status fail(const std::string &why);
    bool writeAll(const char *data, size_t len);

    int fd = -1;
    std::string path_;
    std::string buf; //!< frames not yet committed to the file
    bool flush_each = false;
    bool broken = false;
};

/** Outcome of a tolerant WAL read. */
struct WalReadReport
{
    /** Header parsed and checksummed; epoch is trustworthy. */
    bool header_ok = false;

    uint64_t epoch = 0;

    /** The longest valid record prefix. */
    std::vector<core::JournalRecord> records;

    /** File bytes covered by the header + accepted records. */
    uint64_t bytes_accepted = 0;

    /** True when trailing bytes were rejected (torn/corrupt tail). */
    bool torn = false;

    /** Why reading stopped (empty when the whole file was valid). */
    std::string detail;
};

/**
 * Parse WAL bytes, accepting the longest valid prefix of records.
 * Never fails on a torn or bit-flipped *tail* — that is reported via
 * `torn`/`detail`. header_ok is false when the header itself is
 * missing or corrupt (the records list is then empty).
 */
WalReadReport readWalBytes(const std::string &bytes);

/**
 * Read and parse the WAL at @p path. A missing/unreadable file
 * returns an error Status; any readable file yields a report.
 */
Expected<WalReadReport> readWalFile(const std::string &path);

} // namespace pift::persist

#endif // PIFT_PERSIST_WAL_HH
