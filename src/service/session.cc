#include "service/session.hh"

namespace pift::service
{

Session::Session(ProcId pid, const SessionConfig &cfg, bool state_lost)
    : pid_(pid), storage_(cfg.storage), tracker_(cfg.params, storage_)
{
    if (cfg.provenance && provenance::compiledIn()) {
        provenance::RecorderParams rp;
        rp.ring_capacity = cfg.ring_capacity;
        recorder_ = std::make_unique<provenance::Recorder>(rp);
        tracker_.setRecorder(recorder_.get());
        storage_.setRecorder(recorder_.get());
    }
    if (!cfg.durable_dir.empty()) {
        // ensureDir creates one level; make the shared parent first,
        // the per-pid directory is made by the session's start().
        persist::ensureDir(cfg.durable_dir);
        persist::DurableOptions opts;
        opts.dir = cfg.durable_dir + "/pid_" + std::to_string(pid);
        opts.snapshot_every = cfg.snapshot_every;
        // Group commit: the shard commits once per drained batch.
        opts.flush_each = false;
        durable_ = std::make_unique<persist::DurableSession>(
            storage_, tracker_, opts);
        // A failed start is counted and warned by the session itself.
        if (durable_->start().ok())
            tracker_.setJournal(durable_.get());
    }
    // A session re-admitted after eviction (or a lossy expiry) starts
    // from nothing: declare the loss so negative sink checks degrade
    // to MaybeTainted instead of lying Clean.
    if (state_lost)
        tracker_.noteStateLoss();
}

Session::~Session()
{
    if (durable_) {
        tracker_.setJournal(nullptr);
        // Commits the buffered tail; a failure takes the journal's
        // own failure path.
        (void)durable_->close();
    }
}

void
Session::apply(const ServiceEvent &ev)
{
    ++events_;
    switch (ev.kind) {
      case EventKind::Load:
      case EventKind::Store: {
        sim::TraceRecord rec;
        rec.local_seq = ev.local_seq;
        rec.pid = pid_;
        rec.mem_kind = ev.kind == EventKind::Load ? sim::MemKind::Load
                                                  : sim::MemKind::Store;
        rec.mem_start = ev.start;
        rec.mem_end = ev.end;
        tracker_.onRecord(rec);
        break;
      }
      case EventKind::Source:
      case EventKind::Sink:
      case EventKind::Clear: {
        sim::ControlEvent ctl;
        ctl.kind = ev.kind == EventKind::Source
                       ? sim::ControlKind::RegisterSource
                       : ev.kind == EventKind::Sink
                             ? sim::ControlKind::CheckSink
                             : sim::ControlKind::ClearAll;
        ctl.pid = pid_;
        ctl.start = ev.start;
        ctl.end = ev.end;
        ctl.id = ev.id;
        tracker_.onControl(ctl);
        break;
      }
    }
}

core::SinkVerdict
Session::checkSink(const taint::AddrRange &r, uint32_t id)
{
    ServiceEvent ev;
    ev.pid = pid_;
    ev.kind = EventKind::Sink;
    ev.start = r.start;
    ev.end = r.end;
    ev.id = id;
    apply(ev);
    return tracker_.sinkResults().back().verdict;
}

void
Session::noteStreamLoss()
{
    tracker_.noteStreamLoss(pid_);
}

bool
Session::durableHealthy() const
{
    return !durable_ || durable_->healthy();
}

void
Session::commitJournal()
{
    commit_queued_ = false;
    if (durable_)
        (void)durable_->flush();
}

} // namespace pift::service
