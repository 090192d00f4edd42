/**
 * @file
 * The PIFT taint-propagation heuristic (Algorithm 1).
 *
 * The tracker consumes the retired-instruction stream and maintains
 * the tainted range set R through a per-process Tainting Window (TW):
 *
 *  - on a memory load whose source range overlaps R, (re)start the TW:
 *    remember the per-process instruction index LTLT and zero the
 *    propagation budget;
 *  - on a memory store at instruction k: if k <= LTLT + NI and fewer
 *    than NT propagations have been used in this window, taint the
 *    store's target range; otherwise untaint it (when untainting is
 *    enabled).
 *
 * Everything between the loads and stores — the "process step" that
 * full DIFT instruments — is deliberately ignored; that is the
 * paper's core trade.
 *
 * Control events implement the software stack of Figure 3: source
 * registration taints a range, a sink check queries the outgoing
 * buffer and records a SinkResult.
 */

#ifndef PIFT_CORE_PIFT_TRACKER_HH
#define PIFT_CORE_PIFT_TRACKER_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/journal.hh"
#include "core/taint_store.hh"
#include "provenance/recorder.hh"
#include "sim/trace.hh"
#include "support/types.hh"
#include "taint/addr_range.hh"

namespace pift::core
{

/** Tainting-window configuration (the paper's NI and NT). */
struct PiftParams
{
    /** Tainting window size NI, in per-process instructions. */
    unsigned ni = 13;
    /** Maximum taint propagations NT per window. */
    unsigned nt = 3;
    /** Untaint stores that fall outside every window (Section 3.2). */
    bool untaint = true;
    /**
     * Restart the window on every tainted load (Algorithm 1 / Figure
     * 4 semantics). When false — an ablation variant — a tainted load
     * only opens a window if none is active, and never refreshes one.
     */
    bool restart = true;
};

/** Outcome of one sink check. */
struct SinkResult
{
    uint32_t sink_id = 0;        //!< app-assigned sink identifier
    ProcId pid = 0;
    taint::AddrRange range;      //!< buffer that was checked
    bool tainted = false;        //!< true = leak detected
    /**
     * Degradation-aware verdict: Tainted iff `tainted`; a negative
     * check degrades to MaybeTainted when the backend is saturated or
     * the front-end reported event loss for this process.
     */
    SinkVerdict verdict = SinkVerdict::Clean;
    SeqNum at_records = 0;       //!< records preceding the check
};

/** Running counters of the tracker (drives Figures 14-19). */
struct TrackerStats
{
    uint64_t loads = 0;            //!< load events observed
    uint64_t stores = 0;           //!< store events observed
    uint64_t tainted_loads = 0;    //!< loads that opened/renewed a TW
    uint64_t taint_ops = 0;        //!< effective taint propagations
    uint64_t untaint_ops = 0;      //!< effective untaint operations
    uint64_t max_tainted_bytes = 0;
    uint64_t max_ranges = 0;
    uint64_t stream_loss_events = 0; //!< front-end loss notifications
};

/**
 * Serializable tracker state (DESIGN.md §11): the per-process window
 * machines, loss flags, accumulated sink results, and the event
 * cursor. Together with a TaintStorageState this is everything a
 * restarted tracker needs to continue exactly where the original
 * stopped; statistics counters are observability and are not
 * captured (a restored tracker restarts them at zero).
 */
struct TrackerState
{
    struct WindowState
    {
        ProcId pid = 0;
        bool active = false;
        SeqNum ltlt = 0;
        unsigned used = 0;
    };

    std::vector<WindowState> windows; //!< ascending pid
    std::vector<ProcId> lossy;        //!< ascending pid
    bool global_loss = false;         //!< noteStateLoss() was called
    std::vector<SinkResult> sinks;
    SeqNum records_seen = 0;
    uint64_t controls_seen = 0;
};

class PiftTracker;

/**
 * Consumer of the one branch of Algorithm 1 that reads NT: an
 * in-window store that finds its window's budget spent. The grouped
 * Figure 11 sweep forks its tracker there (DESIGN.md §12).
 */
class BudgetListener
{
  public:
    virtual ~BudgetListener() = default;

    /**
     * Called before @p tracker acts on the store: its cursor already
     * counts the store, while its windows and taint store are as they
     * were before it. The listener may read both but must not feed,
     * restore or reconfigure the tracker.
     */
    virtual void budgetSpent(PiftTracker &tracker) = 0;
};

/** Online implementation of Algorithm 1 over a TaintStore backend. */
class PiftTracker : public sim::TraceSink
{
  public:
    /**
     * @param params window configuration
     * @param store taint-state backend (not owned)
     */
    PiftTracker(const PiftParams &params, TaintStore &store);
    ~PiftTracker() override;

    // The destructor publishes the batched tallies, so a copy would
    // publish them twice; carry state across with exportState().
    PiftTracker(const PiftTracker &) = delete;
    PiftTracker &operator=(const PiftTracker &) = delete;

    void onRecord(const sim::TraceRecord &rec) override;
    void onControl(const sim::ControlEvent &ev) override;

    /**
     * Batched fast path (DESIGN.md §12): iterate the chunk's memory-
     * event SoA arrays directly, skipping non-memory records without
     * touching them. Byte-identical to count onRecord calls — the
     * records_seen cursor (and so every journal and provenance
     * stamp) is advanced per event exactly as the per-event path
     * would.
     */
    void onBatch(const sim::EventBatch &batch) override;

    const TrackerStats &stats() const { return stat; }
    const std::vector<SinkResult> &sinkResults() const { return sinks; }

    /** True when any sink check so far saw tainted data. */
    bool anyLeak() const;

    /** True when any sink check was Tainted *or* MaybeTainted. */
    bool anyPossibleLeak() const;

    /**
     * The CPU front-end (or a decoupling queue between it and the
     * module) reports that events for @p pid were lost or are
     * suspect. From here on, negative sink checks for that process
     * answer MaybeTainted — taint could have propagated through the
     * missing events.
     */
    void noteStreamLoss(ProcId pid);

    /**
     * The whole taint state is suspect (recovery from corrupt durable
     * state, an unrecoverable journal failure): from here on negative
     * sink checks for *every* process answer MaybeTainted. Cleared by
     * a ClearAll (all state is dropped with the loss) — nothing else.
     */
    void noteStateLoss();

    /**
     * True when Clean answers for @p pid can no longer be trusted:
     * the store lost state (saturation), the stream lost events, or
     * whole-state loss was declared.
     */
    bool degraded(ProcId pid) const;

    /**
     * Install a mutation journal (may be null to detach). The tracker
     * emits one JournalRecord after every state transition listed in
     * core/journal.hh; the journal is not owned.
     */
    void setJournal(MutationJournal *journal) { journal_ = journal; }

    /**
     * Install a budget listener (may be null to detach; not owned).
     * The listener may detach itself from inside budgetSpent().
     */
    void setBudgetListener(BudgetListener *listener)
    {
        budget_listener_ = listener;
    }

    /**
     * Attach a provenance flight recorder (may be null to detach).
     * The tracker stamps every record with its records_seen cursor —
     * it advances the recorder's cursor as it consumes events, so
     * records emitted by the storage underneath carry the same
     * journal-compatible stamp. No-op in PIFT_PROVENANCE=OFF builds.
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

    /**
     * Export window machines, loss flags, sink results and the event
     * cursor in canonical order (see TrackerState).
     */
    TrackerState exportState() const;

    /**
     * Replace windows, loss flags, sink results and the event cursor
     * with @p state. Statistics are reset (counters restart at zero);
     * the journal, budget listener and recorder are kept.
     */
    void restoreState(const TrackerState &state);

    /** Control events consumed so far (the resume-cursor pair). */
    uint64_t controlsSeen() const { return controls_seen; }

    /** Reset window state, statistics and sink results (not store). */
    void reset();

    const PiftParams &params() const { return cfg; }

    /**
     * Reconfigure NI/NT/untainting (the hardware Configure command).
     * Open windows are discarded; taint state is kept.
     */
    void setParams(const PiftParams &params);

  private:
    /** Per-process tainting-window state. */
    struct Window
    {
        bool active = false;  //!< a tainted load has been seen
        SeqNum ltlt = 0;      //!< last tainted-load time (local seq)
        unsigned used = 0;    //!< propagations consumed in this TW
    };

    /** Fold the store's size into the running maxima. */
    void afterOp();

    /** Emit a journal record stamped with the current cursor. */
    void journalEvent(JournalRecord rec);

    /**
     * Algorithm 1 for one memory event; the shared core of onRecord
     * and onBatch. records_seen must already account for this event.
     */
    void handleMem(ProcId pid, SeqNum local_seq, sim::MemKind kind,
                   Addr start, Addr end);

    /**
     * windows[pid] behind a one-entry memo: batches are dominated by
     * same-pid runs, so most lookups skip the hash probe. Relies on
     * unordered_map reference stability; invalidated whenever the map
     * is cleared.
     */
    Window &
    windowFor(ProcId pid)
    {
        if (memo_w && memo_pid == pid)
            return *memo_w;
        memo_w = &windows[pid];
        memo_pid = pid;
        return *memo_w;
    }

    PiftParams cfg;
    TaintStore &store;
    std::unordered_map<ProcId, Window> windows;
    Window *memo_w = nullptr; //!< windowFor() memo (see above)
    ProcId memo_pid = 0;
    std::unordered_set<ProcId> lossy_pids;
    bool all_lossy = false;
    TrackerStats stat;
    std::vector<SinkResult> sinks;
    SeqNum records_seen = 0;
    uint64_t controls_seen = 0;
    MutationJournal *journal_ = nullptr;
    BudgetListener *budget_listener_ = nullptr;
#if defined(PIFT_PROVENANCE_ENABLED)
    // Guarded so the member itself vanishes in OFF builds: the
    // recorder costs zero bytes in the tracker when compiled out.
    provenance::Recorder *recorder_ = nullptr;
#endif

    // Per-record telemetry tallies, batched as plain members (this is
    // the hottest loop in the repo) and published to the
    // core.tracker.* counters on destruction.
    uint64_t tel_windows_opened = 0;
    uint64_t tel_windows_renewed = 0;
    uint64_t tel_windows_expired = 0;
    uint64_t tel_stores_tainted = 0;
    uint64_t tel_stores_untainted = 0;
    uint64_t tel_batch_flushes = 0;
};

} // namespace pift::core

#endif // PIFT_CORE_PIFT_TRACKER_HH
