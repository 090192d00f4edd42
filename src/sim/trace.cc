#include "sim/trace.hh"

#include <algorithm>

#include "sim/batch.hh"
#include "support/logging.hh"

namespace pift::sim
{

void
TraceSink::onBatch(const EventBatch &batch)
{
    // Batch-transparency shim: per-event sinks observe the exact
    // stream they would have seen unbatched.
    for (uint32_t i = 0; i < batch.count; ++i)
        onRecord(batch.records[i]);
}

void
EventHub::removeSink(TraceSink *sink)
{
    sinks.erase(std::remove(sinks.begin(), sinks.end(), sink),
                sinks.end());
}

void
TraceBuffer::onRecord(const TraceRecord &rec)
{
    data.records.push_back(rec);
}

void
TraceBuffer::onControl(const ControlEvent &ev)
{
    data.controls.push_back(ev);
}

void
replay(const Trace &trace, TraceSink &sink)
{
    replayFrom(trace, sink, 0, 0);
}

void
replayFrom(const Trace &trace, TraceSink &sink, SeqNum records_done,
           uint64_t controls_done)
{
    size_t ci = static_cast<size_t>(
        std::min<uint64_t>(controls_done, trace.controls.size()));
    const size_t nc = trace.controls.size();
    for (size_t ri = static_cast<size_t>(records_done);
         ri < trace.records.size(); ++ri) {
        // Deliver controls that were published before this record.
        while (ci < nc && trace.controls[ci].seq <= ri)
            sink.onControl(trace.controls[ci++]);
        sink.onRecord(trace.records[ri]);
    }
    while (ci < nc)
        sink.onControl(trace.controls[ci++]);
}

} // namespace pift::sim
