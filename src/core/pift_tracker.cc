#include "core/pift_tracker.hh"

#include <algorithm>

#include "sim/batch.hh"
#include "support/logging.hh"
#include "telemetry/registry.hh"

namespace pift::core
{

namespace
{

/** Tracker instruments, resolved once (see DESIGN.md §9). */
struct TrackerTel
{
    telemetry::Counter &windows_opened =
        telemetry::counter("core.tracker.windows_opened");
    telemetry::Counter &windows_renewed =
        telemetry::counter("core.tracker.windows_renewed");
    telemetry::Counter &windows_expired =
        telemetry::counter("core.tracker.windows_expired");
    telemetry::Counter &stores_tainted =
        telemetry::counter("core.tracker.stores_tainted");
    telemetry::Counter &stores_untainted =
        telemetry::counter("core.tracker.stores_untainted");
    telemetry::Counter &sinks_clean =
        telemetry::counter("core.tracker.sinks_clean");
    telemetry::Counter &sinks_tainted =
        telemetry::counter("core.tracker.sinks_tainted");
    telemetry::Counter &sinks_maybe =
        telemetry::counter("core.tracker.sinks_maybe");
    telemetry::Counter &batch_flushes =
        telemetry::counter("core.tracker.batch_flushes");
};

TrackerTel &
tel()
{
    static TrackerTel t;
    return t;
}

} // anonymous namespace

PiftTracker::PiftTracker(const PiftParams &params, TaintStore &store_)
    : cfg(params), store(store_)
{
    pift_assert(cfg.ni >= 1, "NI must be at least 1");
    pift_assert(cfg.nt >= 1, "NT must be at least 1");
}

PiftTracker::~PiftTracker()
{
    // Publish the batched per-record tallies (see pift_tracker.hh).
    if (tel_windows_opened)
        tel().windows_opened.inc(tel_windows_opened);
    if (tel_windows_renewed)
        tel().windows_renewed.inc(tel_windows_renewed);
    if (tel_windows_expired)
        tel().windows_expired.inc(tel_windows_expired);
    if (tel_stores_tainted)
        tel().stores_tainted.inc(tel_stores_tainted);
    if (tel_stores_untainted)
        tel().stores_untainted.inc(tel_stores_untainted);
    if (tel_batch_flushes)
        tel().batch_flushes.inc(tel_batch_flushes);
}

void
PiftTracker::journalEvent(JournalRecord rec)
{
    rec.records_seen = records_seen;
    rec.controls_seen = controls_seen;
    journal_->append(rec);
}

void
PiftTracker::afterOp()
{
    stat.max_tainted_bytes = std::max(stat.max_tainted_bytes,
                                      store.bytes());
    stat.max_ranges = std::max<uint64_t>(stat.max_ranges,
                                         store.rangeCount());
}

void
PiftTracker::handleMem(ProcId pid, SeqNum local_seq,
                       sim::MemKind kind, Addr start, Addr end)
{
    taint::AddrRange range(start, end);

    if (kind == sim::MemKind::Load) {
        ++stat.loads;
        // [Algorithm 1, lines 10-15] A load overlapping a tainted
        // range starts (or restarts) the tainting window.
        if (store.query(pid, range)) {
            Window &w = windowFor(pid);
            bool open = w.active && local_seq <= w.ltlt + cfg.ni;
            if (w.active && !open) {
                // Lazily retire the stale window so expiry is
                // countable; semantics are unchanged (an inactive and
                // an expired window behave identically below).
                w.active = false;
                if constexpr (telemetry::compiledIn())
                    ++tel_windows_expired;
                PIFT_PROV(recorder_,
                          record(provenance::ProvKind::WindowExpire,
                                 provenance::ProvCause::WindowClosed,
                                 pid, range.start, range.end, 0,
                                 w.ltlt, w.used));
            }
            if (cfg.restart || !open) {
                if constexpr (telemetry::compiledIn())
                    ++(open ? tel_windows_renewed
                            : tel_windows_opened);
                w.active = true;
                w.ltlt = local_seq;
                w.used = 0;
                PIFT_PROV(
                    recorder_,
                    record(open ? provenance::ProvKind::WindowRenew
                                : provenance::ProvKind::WindowOpen,
                           provenance::ProvCause::TaintHit, pid,
                           range.start, range.end, 0, w.ltlt, w.used));
            } else {
                // restart=false hit inside an open window: still a
                // tainted load — the explainer needs it as the causal
                // parent of the stores that follow.
                PIFT_PROV(recorder_,
                          record(provenance::ProvKind::WindowRenew,
                                 provenance::ProvCause::TaintHit, pid,
                                 range.start, range.end, 0, w.ltlt,
                                 w.used));
            }
            ++stat.tainted_loads;
            if (journal_) {
                // Journaled even when the window was left untouched
                // (restart=false): replaying the hit's query refreshes
                // the storage LRU state exactly like the original.
                journalEvent({JournalKind::TaintedLoad,
                              SinkVerdict::Clean, pid, range.start,
                              range.end, 0, w.ltlt, w.used, 0, 0});
            }
        }
        return;
    }

    // Store.
    ++stat.stores;
    Window &w = windowFor(pid);
    bool in_window = w.active && local_seq <= w.ltlt + cfg.ni;
    if (w.active && !in_window) {
        w.active = false;
        if constexpr (telemetry::compiledIn())
            ++tel_windows_expired;
        PIFT_PROV(recorder_,
                  record(provenance::ProvKind::WindowExpire,
                         provenance::ProvCause::WindowClosed, pid,
                         range.start, range.end, 0, w.ltlt, w.used));
    }
    // The only read of NT below: every NT above w.used would taint.
    if (budget_listener_ && in_window && w.used >= cfg.nt)
        budget_listener_->budgetSpent(*this);
    if (in_window && w.used < cfg.nt) {
        // [Lines 17-19] Taint the target range.
        ++w.used;
        bool grew = store.insert(pid, range);
        if (grew) {
            ++stat.taint_ops;
            if constexpr (telemetry::compiledIn())
                ++tel_stores_tainted;
            afterOp();
        }
        PIFT_PROV(recorder_,
                  record(grew ? provenance::ProvKind::TaintWrite
                              : provenance::ProvKind::TaintMerge,
                         provenance::ProvCause::TaintHit, pid,
                         range.start, range.end, 0, w.ltlt, w.used));
        if (journal_) {
            // Journaled regardless of the insert's outcome: the
            // budget (used) advanced either way, and even a no-new-
            // bytes insert restructures entries and the LRU clock.
            journalEvent({JournalKind::StoreTaint, SinkVerdict::Clean,
                          pid, range.start, range.end, 0, w.ltlt,
                          w.used, 0, 0});
        }
    } else if (cfg.untaint) {
        // [Lines 20-22] Outside the window (or budget exhausted):
        // the target is likely overwritten with non-sensitive data.
        if (store.remove(pid, range)) {
            ++stat.untaint_ops;
            if constexpr (telemetry::compiledIn())
                ++tel_stores_untainted;
            afterOp();
            PIFT_PROV(
                recorder_,
                record(provenance::ProvKind::Untaint,
                       in_window
                           ? provenance::ProvCause::BudgetExhausted
                           : provenance::ProvCause::WindowClosed,
                       pid, range.start, range.end, 0, w.ltlt,
                       w.used));
            if (journal_) {
                journalEvent({JournalKind::StoreUntaint,
                              SinkVerdict::Clean, pid, range.start,
                              range.end, 0, 0, 0, 0, 0});
            }
        }
    }
}

void
PiftTracker::onRecord(const sim::TraceRecord &rec)
{
    ++records_seen;
    if (rec.mem_kind == sim::MemKind::None)
        return;
    PIFT_PROV(recorder_, setCursor(records_seen));
    handleMem(rec.pid, rec.local_seq, rec.mem_kind, rec.mem_start,
              rec.mem_end);
}

void
PiftTracker::onBatch(const sim::EventBatch &batch)
{
    // Tight SoA loop over only the memory events. records_seen is
    // advanced to each event's per-event value (count of records up
    // to and including it) before handling, so journal and provenance
    // stamps match the unbatched path byte for byte.
    const SeqNum base = records_seen;
    for (uint32_t k = 0; k < batch.mem_count; ++k) {
        records_seen =
            base + (batch.mem_index[k] - batch.index_base) + 1;
        PIFT_PROV(recorder_, setCursor(records_seen));
        handleMem(batch.pid[k], batch.local_seq[k],
                  static_cast<sim::MemKind>(batch.kind[k]),
                  batch.start[k], batch.end[k]);
    }
    records_seen = base + batch.count;
    if constexpr (telemetry::compiledIn())
        ++tel_batch_flushes;
}

void
PiftTracker::onControl(const sim::ControlEvent &ev)
{
    ++controls_seen;
    taint::AddrRange range(ev.start, ev.end);
    PIFT_PROV(recorder_, setCursor(records_seen));
    switch (ev.kind) {
      case sim::ControlKind::RegisterSource:
        if (store.insert(ev.pid, range)) {
            ++stat.taint_ops;
            afterOp();
        }
        PIFT_PROV(recorder_,
                  record(provenance::ProvKind::SourceRead,
                         provenance::ProvCause::None, ev.pid,
                         range.start, range.end, ev.id));
        if (journal_) {
            journalEvent({JournalKind::SourceTaint, SinkVerdict::Clean,
                          ev.pid, range.start, range.end, ev.id, 0, 0,
                          0, 0});
        }
        break;
      case sim::ControlKind::CheckSink: {
        SinkResult res;
        res.sink_id = ev.id;
        res.pid = ev.pid;
        res.range = range;
        res.tainted = store.query(ev.pid, range);
        res.verdict = res.tainted ? SinkVerdict::Tainted
            : degraded(ev.pid) ? SinkVerdict::MaybeTainted
                               : SinkVerdict::Clean;
        res.at_records = records_seen;
        switch (res.verdict) {
          case SinkVerdict::Clean:
            tel().sinks_clean.inc();
            break;
          case SinkVerdict::Tainted:
            tel().sinks_tainted.inc();
            break;
          case SinkVerdict::MaybeTainted:
            tel().sinks_maybe.inc();
            break;
        }
        sinks.push_back(res);
#if defined(PIFT_PROVENANCE_ENABLED)
        if (recorder_) {
            // Informational proximate cause; explain() resolves the
            // concrete degradation record behind a MaybeTainted.
            provenance::ProvCause why = provenance::ProvCause::None;
            if (res.verdict == SinkVerdict::Tainted) {
                why = provenance::ProvCause::TaintHit;
            } else if (res.verdict == SinkVerdict::MaybeTainted) {
                why = all_lossy
                    ? provenance::ProvCause::StateLossDeclared
                    : lossy_pids.count(ev.pid)
                    ? provenance::ProvCause::FrontEndLoss
                    : provenance::ProvCause::StorageSaturated;
            }
            recorder_->record(provenance::ProvKind::SinkCheck, why,
                              ev.pid, range.start, range.end, ev.id, 0,
                              0, static_cast<uint8_t>(res.verdict));
        }
#endif
        if (journal_) {
            journalEvent({JournalKind::SinkCheck, res.verdict, ev.pid,
                          range.start, range.end, ev.id, 0, 0, 0, 0});
        }
        break;
      }
      case sim::ControlKind::ClearAll:
        store.clear();
        windows.clear();
        memo_w = nullptr;
        // All lost state is gone with the rest; stop degrading.
        lossy_pids.clear();
        all_lossy = false;
        PIFT_PROV(recorder_,
                  recordGlobal(provenance::ProvKind::ClearAll,
                               provenance::ProvCause::None));
        if (journal_) {
            journalEvent({JournalKind::ClearAll, SinkVerdict::Clean, 0,
                          0, 0, 0, 0, 0, 0, 0});
        }
        break;
    }
}

bool
PiftTracker::anyLeak() const
{
    return std::any_of(sinks.begin(), sinks.end(),
                       [](const SinkResult &s) { return s.tainted; });
}

bool
PiftTracker::anyPossibleLeak() const
{
    return std::any_of(sinks.begin(), sinks.end(),
                       [](const SinkResult &s) {
                           return s.verdict != SinkVerdict::Clean;
                       });
}

void
PiftTracker::noteStreamLoss(ProcId pid)
{
    ++stat.stream_loss_events;
    lossy_pids.insert(pid);
    PIFT_PROV(recorder_,
              record(provenance::ProvKind::StreamLoss,
                     provenance::ProvCause::FrontEndLoss, pid));
    if (journal_) {
        journalEvent({JournalKind::StreamLoss, SinkVerdict::Clean, pid,
                      0, 0, 0, 0, 0, 0, 0});
    }
}

void
PiftTracker::noteStateLoss()
{
    ++stat.stream_loss_events;
    all_lossy = true;
    PIFT_PROV(recorder_,
              recordGlobal(provenance::ProvKind::StateLoss,
                           provenance::ProvCause::StateLossDeclared));
    if (journal_) {
        journalEvent({JournalKind::StateLoss, SinkVerdict::Clean, 0, 0,
                      0, 0, 0, 0, 0, 0});
    }
}

bool
PiftTracker::degraded(ProcId pid) const
{
    return all_lossy || lossy_pids.count(pid) > 0 ||
        store.saturated(pid);
}

TrackerState
PiftTracker::exportState() const
{
    TrackerState state;
    for (const auto &[pid, w] : windows)
        state.windows.push_back({pid, w.active, w.ltlt, w.used});
    std::sort(state.windows.begin(), state.windows.end(),
              [](const TrackerState::WindowState &a,
                 const TrackerState::WindowState &b) {
                  return a.pid < b.pid;
              });
    state.lossy.assign(lossy_pids.begin(), lossy_pids.end());
    std::sort(state.lossy.begin(), state.lossy.end());
    state.global_loss = all_lossy;
    state.sinks = sinks;
    state.records_seen = records_seen;
    state.controls_seen = controls_seen;
    return state;
}

void
PiftTracker::restoreState(const TrackerState &state)
{
    windows.clear();
    memo_w = nullptr;
    for (const auto &w : state.windows)
        windows[w.pid] = {w.active, w.ltlt, w.used};
    lossy_pids.clear();
    lossy_pids.insert(state.lossy.begin(), state.lossy.end());
    all_lossy = state.global_loss;
    sinks = state.sinks;
    records_seen = state.records_seen;
    controls_seen = state.controls_seen;
    stat = TrackerStats{};
}

void
PiftTracker::setParams(const PiftParams &params)
{
    pift_assert(params.ni >= 1, "NI must be at least 1");
    pift_assert(params.nt >= 1, "NT must be at least 1");
    cfg = params;
    windows.clear();
    memo_w = nullptr;
}

void
PiftTracker::reset()
{
    windows.clear();
    memo_w = nullptr;
    lossy_pids.clear();
    all_lossy = false;
    stat = TrackerStats{};
    sinks.clear();
    records_seen = 0;
    controls_seen = 0;
}

} // namespace pift::core
