/**
 * @file
 * DurableSession: the live end of crash recovery (DESIGN.md §11).
 *
 * A DurableSession owns one state directory holding at most two
 * artifacts — `snapshot.pift` and `wal.pift` — and implements the
 * tracker's MutationJournal interface: every journaled state
 * transition is framed into the WAL, and every `snapshot_every`
 * records the full state is snapshotted and the WAL rotated.
 *
 * The epoch invariant that makes every crash point recoverable:
 * `epoch()` counts snapshots taken; no snapshot file means the
 * implicit empty snapshot at epoch 0 and cursor (0,0). snapshotNow()
 * first atomically publishes the snapshot at epoch E+1, then reopens
 * the WAL at epoch E+1 — so a crash between the two steps leaves
 * snapshot E+1 beside a WAL marked E, which recovery recognizes as a
 * rotation crash (every record in that WAL was exported into the
 * snapshot already, so the whole log is stale). A WAL more than one epoch behind its
 * snapshot cannot occur through any crash and is treated as
 * corruption.
 *
 * The WAL group-commits (wal.hh): records collect in its buffer and
 * reach the file at flush(), close(), every snapshot, a full buffer,
 * or every record with flush_each. The service flushes once per
 * drained batch (DESIGN.md §14).
 *
 * I/O failures are sticky: the session keeps the live run going but
 * healthy() turns false, the failure counts in
 * `persist.io_failures_total` with a rate-limited warning, and the
 * caller must treat the directory as stale (recovery from it would
 * silently miss the tail — exactly what noteStateLoss() exists for).
 * Every failing call — start, append, flush, close, snapshot or
 * rotation — takes that one path.
 */

#ifndef PIFT_PERSIST_DURABLE_HH
#define PIFT_PERSIST_DURABLE_HH

#include <cstdint>
#include <string>

#include "core/journal.hh"
#include "core/pift_tracker.hh"
#include "core/taint_storage.hh"
#include "persist/wal.hh"
#include "support/expected.hh"

namespace pift::persist
{

/** Snapshot file location inside a state directory. */
std::string snapshotPath(const std::string &dir);

/** WAL file location inside a state directory. */
std::string walPath(const std::string &dir);

/** Create @p dir if missing (one level). */
Status ensureDir(const std::string &dir);

/** Tuning for a DurableSession. */
struct DurableOptions
{
    std::string dir;

    /**
     * Take a snapshot (and rotate the WAL) every this many journal
     * records; 0 disables the cadence (snapshots only on demand).
     */
    uint64_t snapshot_every = 0;

    /**
     * Flush the WAL after every record. Maximum durability (a crash
     * loses at most the torn final frame). Off, records wait in the
     * WAL's commit buffer (at most wal_commit_bytes) for flush(),
     * close() or the next snapshot.
     */
    bool flush_each = true;
};

/** Journals mutations to a WAL and snapshots on cadence. */
class DurableSession : public core::MutationJournal
{
  public:
    /**
     * @param storage the hardware-model store being made durable
     * @param tracker the tracker driving it (journal source)
     */
    DurableSession(core::TaintStorage &storage,
                   core::PiftTracker &tracker,
                   const DurableOptions &options);
    ~DurableSession() override;

    /**
     * Create the state directory if needed and open the WAL at
     * @p initial_epoch (0 for a fresh run; recovery passes the epoch
     * it restored plus one after re-snapshotting). Does not write a
     * snapshot — for a fresh run the implicit empty epoch-0 snapshot
     * is already "on disk" by definition.
     */
    Status start(uint64_t initial_epoch = 0);

    /** MutationJournal: frame the record into the WAL. */
    void append(const core::JournalRecord &rec) override;

    /**
     * Flush the WAL, export the current storage + tracker state,
     * publish it atomically as snapshot epoch()+1, then rotate the
     * WAL to the new epoch. On failure the previous snapshot/WAL pair
     * remains the recovery point and healthy() turns false.
     */
    Status snapshotNow();

    /**
     * Commit the WAL's buffered records to the file in one write
     * (no-op when nothing is buffered, as always with flush_each).
     */
    Status flush();

    /** Flush and close the WAL; the directory stays recoverable. */
    Status close();

    /** False after any unrecovered I/O failure (sticky). */
    bool healthy() const { return healthy_; }

    /** Snapshots taken (== epoch of the newest snapshot file). */
    uint64_t epoch() const { return epoch_; }

    /** Journal records appended across all WAL epochs. */
    uint64_t recordsLogged() const { return records_logged; }

    /** Snapshots successfully published. */
    uint64_t snapshotsTaken() const { return snapshots_taken; }

    const DurableOptions &options() const { return opts; }

    /**
     * Attach a provenance flight recorder (may be null). The session
     * emits a SnapshotEpoch + WalEpoch global record per successful
     * snapshot publication, so explanations can be correlated with the
     * durable epoch they would recover into. No-op when
     * PIFT_PROVENANCE=OFF.
     */
    void
    setRecorder(provenance::Recorder *rec)
    {
#if defined(PIFT_PROVENANCE_ENABLED)
        recorder_ = rec;
#else
        (void)rec;
#endif
    }

  private:
    /** The one failure path: sticky unhealthy, counted, warned. */
    Status lose(Status s, const char *what);

    core::TaintStorage &storage;
    core::PiftTracker &tracker;
    DurableOptions opts;
    WalWriter wal;
    uint64_t epoch_ = 0;
    uint64_t records_since_snapshot = 0;
    uint64_t records_logged = 0;
    uint64_t snapshots_taken = 0;
    bool healthy_ = true;
#if defined(PIFT_PROVENANCE_ENABLED)
    provenance::Recorder *recorder_ = nullptr;
#endif
};

} // namespace pift::persist

#endif // PIFT_PERSIST_DURABLE_HH
