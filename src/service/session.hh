/**
 * @file
 * One tracked process inside the multi-tenant service (DESIGN.md §14).
 *
 * A Session is the per-PID unit the daemon multiplexes: its own
 * TaintStorage (the paper's bounded CAM model), its own PiftTracker
 * window machine, an optional provenance flight recorder wired to
 * both, and an optional persist::DurableSession journaling every
 * mutation. The shape mirrors the Ledger per-page manager pattern —
 * a manager object owning the full state of one logical tenant, with
 * the connection-multiplexing layer (service.hh) deciding when one is
 * created, parked, or torn down.
 *
 * Sessions are not thread-safe; the owning shard's lock serializes
 * all access (service.cc).
 */

#ifndef PIFT_SERVICE_SESSION_HH
#define PIFT_SERVICE_SESSION_HH

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/pift_tracker.hh"
#include "core/taint_storage.hh"
#include "persist/durable.hh"
#include "provenance/recorder.hh"
#include "support/types.hh"
#include "taint/addr_range.hh"

namespace pift::service
{

/** What one ingested event asks of a session. */
enum class EventKind : uint8_t
{
    Load = 0, //!< memory load of [start, end]
    Store,    //!< memory store to [start, end]
    Source,   //!< register a taint source over [start, end]
    Sink,     //!< check [start, end] at a sink
    Clear     //!< drop the process's taint state (app restart)
};

/**
 * One event submitted to the service. The wire-level analogue of the
 * kernel module's input: a memory access (pid, per-process
 * instruction counter, access kind, byte range — Section 3.3) or an
 * interleaved software command. Non-memory retired instructions are
 * never shipped; the tracker's window arithmetic keys on local_seq,
 * which the capture side stamps.
 */
struct ServiceEvent
{
    ProcId pid = 0;
    EventKind kind = EventKind::Load;
    Addr start = 0;
    Addr end = 0;          //!< inclusive, like taint::AddrRange
    SeqNum local_seq = 0;  //!< per-process instruction counter
    uint32_t id = 0;       //!< source/sink identifier (app-defined)
};

/** Per-session configuration, shared by every session of a service. */
struct SessionConfig
{
    core::PiftParams params;          //!< tainting window (NI, NT)
    core::TaintStorageParams storage; //!< bounded CAM model

    /**
     * Attach a per-session provenance flight recorder so sink
     * verdicts — including backpressure-induced MaybeTainted — can
     * be explained after the fact. No-op in PIFT_PROVENANCE=OFF
     * builds (the stub recorder records nothing).
     */
    bool provenance = false;
    size_t ring_capacity = 4096; //!< recorder ring, when enabled

    /**
     * When non-empty, each session journals into
     * `<durable_dir>/pid_<pid>` through a persist::DurableSession
     * (snapshot + WAL, crash-recoverable), group-committed once per
     * drained batch (DESIGN.md §14). The service does not recover
     * from it on restart yet (ROADMAP item 1).
     */
    std::string durable_dir;
    uint64_t snapshot_every = 0; //!< WAL rotation cadence (0 = never)
};

/**
 * The tracking state of one attached PID. `state_lost` constructions
 * (re-admission after an eviction or a lossy expiry) immediately
 * declare state loss so every later negative sink check answers
 * MaybeTainted — an evicted tenant can never be silently Clean.
 */
class Session
{
  public:
    Session(ProcId pid, const SessionConfig &cfg, bool state_lost);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Feed one event through the tracker. */
    void apply(const ServiceEvent &ev);

    /** Synchronous sink check; records a SinkResult like apply. */
    core::SinkVerdict checkSink(const taint::AddrRange &r,
                                uint32_t id);

    /** Front-end loss (shard overflow dropped this pid's events). */
    void noteStreamLoss();

    ProcId pid() const { return pid_; }

    /** Bytes this session's storage holds (eviction pressure). */
    uint64_t storageBytes() const { return storage_.bytes(); }

    /** True when Clean answers can no longer be trusted. */
    bool degraded() const { return tracker_.degraded(pid_); }

    /** Logical-clock tick of the last ingested event. */
    uint64_t lastActive() const { return last_active_; }

    /**
     * Note activity at @p tick. Keeps the larger tick: a drain applies
     * queued events whose ticks predate a refused event's loss mark.
     */
    void
    touch(uint64_t tick)
    {
        last_active_ = std::max(last_active_, tick);
    }

    uint64_t eventsApplied() const { return events_; }

    const std::vector<core::SinkResult> &
    sinkResults() const
    {
        return tracker_.sinkResults();
    }

    /** The flight recorder, or null when provenance is off. */
    const provenance::Recorder *recorder() const
    {
        return recorder_.get();
    }

    /** False when the durable journal hit an I/O failure. */
    bool durableHealthy() const;

    /**
     * Group commit (DESIGN.md §14). Marks the durable journal as
     * holding records for the next commit. @return true the first
     * time since the last commitJournal(), when the shard must list
     * the session for its next drain; always false without a durable
     * journal.
     */
    bool
    queueCommit()
    {
        if (!durable_ || commit_queued_)
            return false;
        commit_queued_ = true;
        return true;
    }

    /**
     * Hand the journal's buffered records to the WAL file in one
     * write. A failure marks the journal unhealthy; the session keeps
     * answering.
     */
    void commitJournal();

  private:
    ProcId pid_;
    core::TaintStorage storage_;
    core::PiftTracker tracker_;
    std::unique_ptr<provenance::Recorder> recorder_;
    std::unique_ptr<persist::DurableSession> durable_;
    uint64_t last_active_ = 0;
    uint64_t events_ = 0;
    SeqNum records_fed_ = 0; //!< synthetic global seq for the tracker
    bool commit_queued_ = false; //!< listed for the shard's next commit
};

} // namespace pift::service

#endif // PIFT_SERVICE_SESSION_HH
