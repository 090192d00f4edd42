#include "layers.hh"

#include <sys/stat.h>

namespace perfbench
{

using namespace pift;

double
clockReadNs()
{
    // An empty timed region costs about one clock read; take the
    // median of many batches so a preempted batch cannot skew it.
    constexpr int batch = 1024;
    std::vector<double> per_read;
    for (int rep = 0; rep < 64; ++rep) {
        LayerClock c;
        for (int i = 0; i < batch; ++i)
            timeInto(c, [] {});
        per_read.push_back(c.ns / batch);
    }
    return median(per_read);
}

namespace
{

uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                         : 0;
}

} // namespace

void
TimedJournal::append(const core::JournalRecord &rec)
{
    timeInto(appends, [&] { durable_.append(rec); });
    if (every_ && ++since_snapshot_ >= every_) {
        since_snapshot_ = 0;
        // snapshotNow() truncates the WAL; flush its buffered tail
        // first so every byte written is counted.
        (void)durable_.flush();
        rotated_bytes_ += fileBytes(persist::walPath(durable_.options().dir));
        Scoped span(spans_, "DurableSession::snapshotNow", tenant_);
        timeInto(snapshots, [&] { (void)durable_.snapshotNow(); });
    }
}

uint64_t
TimedJournal::walBytes() const
{
    return rotated_bytes_ + fileBytes(persist::walPath(durable_.options().dir));
}

void
EventFeeder::apply(const service::ServiceEvent &ev)
{
    switch (ev.kind) {
      case service::EventKind::Load:
      case service::EventKind::Store: {
        sim::TraceRecord rec;
        rec.seq = ++records_fed_;
        rec.local_seq = ev.local_seq;
        rec.pid = pid_;
        rec.mem_kind = ev.kind == service::EventKind::Load
                           ? sim::MemKind::Load
                           : sim::MemKind::Store;
        rec.mem_start = ev.start;
        rec.mem_end = ev.end;
        sink_.onRecord(rec);
        break;
      }
      case service::EventKind::Source:
      case service::EventKind::Sink:
      case service::EventKind::Clear: {
        sim::ControlEvent ctl;
        ctl.seq = records_fed_;
        ctl.kind = ev.kind == service::EventKind::Source
                       ? sim::ControlKind::RegisterSource
                       : ev.kind == service::EventKind::Sink
                             ? sim::ControlKind::CheckSink
                             : sim::ControlKind::ClearAll;
        ctl.pid = pid_;
        ctl.start = ev.start;
        ctl.end = ev.end;
        ctl.id = ev.id;
        sink_.onControl(ctl);
        break;
      }
    }
}

} // namespace perfbench
