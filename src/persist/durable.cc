#include "persist/durable.hh"

#include <cerrno>
#include <cstring>
#include <sys/stat.h>

#include "persist/snapshot.hh"
#include "support/logging.hh"
#include "telemetry/registry.hh"

namespace pift::persist
{

namespace
{

/** Persist instruments, resolved once (see DESIGN.md §9). */
struct PersistTel
{
    telemetry::Counter &wal_records =
        telemetry::counter("persist.wal_records_total");
    telemetry::Counter &snapshots =
        telemetry::counter("persist.snapshots_total");
    telemetry::Counter &io_failures =
        telemetry::counter("persist.io_failures_total");
};

PersistTel &
tel()
{
    static PersistTel t;
    return t;
}

} // anonymous namespace

std::string
snapshotPath(const std::string &dir)
{
    return dir + "/snapshot.pift";
}

std::string
walPath(const std::string &dir)
{
    return dir + "/wal.pift";
}

Status
ensureDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST)
        return Status();
    return Status::error("cannot create directory " + dir + ": " +
                         std::strerror(errno));
}

DurableSession::DurableSession(core::TaintStorage &storage_,
                               core::PiftTracker &tracker_,
                               const DurableOptions &options)
    : storage(storage_), tracker(tracker_), opts(options)
{}

DurableSession::~DurableSession()
{
    close();
}

Status
DurableSession::lose(Status s, const char *what)
{
    if (healthy_) {
        tel().io_failures.inc();
        pift_warn_limited(3,
                          "durable session: %s; state dir is now "
                          "stale: %s",
                          what, s.message().c_str());
    }
    healthy_ = false;
    return s;
}

Status
DurableSession::start(uint64_t initial_epoch)
{
    if (Status s = ensureDir(opts.dir); !s.ok())
        return lose(s, "cannot create its directory");
    epoch_ = initial_epoch;
    records_since_snapshot = 0;
    if (Status s = wal.open(walPath(opts.dir), epoch_,
                            opts.flush_each);
        !s.ok())
        return lose(s, "cannot open its WAL");
    return Status();
}

void
DurableSession::append(const core::JournalRecord &rec)
{
    if (Status s = wal.append(rec); !s.ok()) {
        (void)lose(s, "lost its WAL");
        return;
    }
    ++records_logged;
    tel().wal_records.inc();
    ++records_since_snapshot;
    if (opts.snapshot_every &&
        records_since_snapshot >= opts.snapshot_every) {
        // Cadence snapshot; failure already flags the session.
        (void)snapshotNow();
    }
}

Status
DurableSession::snapshotNow()
{
    // Commit the WAL's buffered tail first, so the old snapshot/WAL
    // pair is complete if the snapshot write below fails or crashes.
    if (Status s = flush(); !s.ok())
        return s;

    SnapshotData data;
    data.epoch = epoch_ + 1;
    data.storage = storage.exportState();
    data.tracker = tracker.exportState();

    if (Status s = writeSnapshotFile(snapshotPath(opts.dir), data);
        !s.ok())
        return lose(s, "snapshot write failed");
    ++epoch_;
    ++snapshots_taken;
    tel().snapshots.inc();
    records_since_snapshot = 0;
    PIFT_PROV(recorder_,
              recordGlobal(provenance::ProvKind::SnapshotEpoch,
                           provenance::ProvCause::None,
                           static_cast<uint32_t>(epoch_)));

    // Rotate: the published snapshot covers everything the old WAL
    // held, so restart the log at the new epoch. A crash before this
    // completes leaves WAL epoch-1, which recovery treats as the
    // (stale) rotation-crash case.
    if (Status s = wal.open(walPath(opts.dir), epoch_,
                            opts.flush_each);
        !s.ok())
        return lose(s, "WAL rotation failed");
    PIFT_PROV(recorder_,
              recordGlobal(provenance::ProvKind::WalEpoch,
                           provenance::ProvCause::None,
                           static_cast<uint32_t>(epoch_)));
    return Status();
}

Status
DurableSession::flush()
{
    if (Status s = wal.flush(); !s.ok())
        return lose(s, "WAL commit failed");
    return Status();
}

Status
DurableSession::close()
{
    if (Status s = wal.close(); !s.ok())
        return lose(s, "WAL close failed");
    return Status();
}

} // namespace pift::persist
