#include "sim/batch.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"

namespace pift::sim
{

namespace
{

/** Batch-pipeline instruments, resolved once (see DESIGN.md §9). */
struct BatchTel
{
    telemetry::Counter &packed_traces =
        telemetry::counter("sim.batch.packed_traces");
    telemetry::Counter &packed_records =
        telemetry::counter("sim.batch.packed_records");
    telemetry::Counter &packed_mem_events =
        telemetry::counter("sim.batch.packed_mem_events");
    telemetry::Counter &replays =
        telemetry::counter("sim.batch.replays");
    telemetry::Counter &batches =
        telemetry::counter("sim.batch.batches");
    telemetry::Counter &records_replayed =
        telemetry::counter("sim.batch.records_replayed");
};

BatchTel &
btel()
{
    static BatchTel t;
    return t;
}

} // anonymous namespace

PackedTrace::PackedTrace(const Trace &trace) : src(&trace)
{
    telemetry::Span span("sim:pack_trace", "sim");
    const auto &recs = trace.records;
    size_t nmem = 0;
    for (const auto &rec : recs)
        nmem += rec.mem_kind != MemKind::None;
    mem_index_.reserve(nmem);
    pid_.reserve(nmem);
    local_seq_.reserve(nmem);
    pc_.reserve(nmem);
    start_.reserve(nmem);
    end_.reserve(nmem);
    kind_.reserve(nmem);
    for (size_t i = 0; i < recs.size(); ++i) {
        const TraceRecord &rec = recs[i];
        if (rec.mem_kind == MemKind::None)
            continue;
        mem_index_.push_back(static_cast<uint32_t>(i));
        pid_.push_back(rec.pid);
        local_seq_.push_back(rec.local_seq);
        pc_.push_back(rec.pc);
        start_.push_back(rec.mem_start);
        end_.push_back(rec.mem_end);
        kind_.push_back(static_cast<uint8_t>(rec.mem_kind));
    }
    btel().packed_traces.inc();
    btel().packed_records.inc(recs.size());
    btel().packed_mem_events.inc(mem_index_.size());
}

uint32_t
PackedTrace::memCursor(uint32_t first) const
{
    auto it = std::lower_bound(mem_index_.begin(), mem_index_.end(),
                               first);
    return static_cast<uint32_t>(it - mem_index_.begin());
}

EventBatch
PackedTrace::slice(uint32_t first, uint32_t count,
                   uint32_t mem_cursor) const
{
    EventBatch b;
    b.count = count;
    b.index_base = first;
    if (count == 0)
        return b;
    b.records = src->records.data() + first;
    // Advance past the memory events inside [first, first + count);
    // linear, but bounded by the events the consumer is about to
    // process anyway.
    const uint32_t limit = first + count;
    uint32_t e = mem_cursor;
    while (e < mem_index_.size() && mem_index_[e] < limit)
        ++e;
    b.mem_count = e - mem_cursor;
    b.mem_index = mem_index_.data() + mem_cursor;
    b.pid = pid_.data() + mem_cursor;
    b.local_seq = local_seq_.data() + mem_cursor;
    b.pc = pc_.data() + mem_cursor;
    b.start = start_.data() + mem_cursor;
    b.end = end_.data() + mem_cursor;
    b.kind = kind_.data() + mem_cursor;
    return b;
}

EventBatch
PackedTrace::sliceAt(uint32_t first, uint32_t count) const
{
    return slice(first, count, memCursor(first));
}

void
replayBatched(const PackedTrace &packed, TraceSink &sink,
              uint32_t batch_records)
{
    replayBatchedFrom(packed, sink, 0, 0, batch_records);
}

void
replayBatchedFrom(const PackedTrace &packed, TraceSink &sink,
                  SeqNum records_done, uint64_t controls_done,
                  uint32_t batch_records)
{
    const Trace &trace = packed.trace();
    if (batch_records == 0) {
        replayFrom(trace, sink, records_done, controls_done);
        return;
    }
    telemetry::Span span("sim:replay_batched", "sim");
    const size_t n = trace.records.size();
    const size_t nc = trace.controls.size();
    size_t ci = static_cast<size_t>(std::min<uint64_t>(controls_done, nc));
    size_t ri = static_cast<size_t>(std::min<SeqNum>(records_done, n));
    const size_t first = ri;
    uint32_t cursor = packed.memCursor(static_cast<uint32_t>(ri));
    // Tally batches/records locally; one registry update per replay
    // keeps the hot loop free of atomics.
    uint64_t nbatches = 0;
    while (ri < n) {
        // Controls published before record ri come first, exactly as
        // in replayFrom().
        while (ci < nc && trace.controls[ci].seq <= ri)
            sink.onControl(trace.controls[ci++]);
        // The batch may not straddle the next control's position.
        size_t end = std::min(ri + batch_records, n);
        if (ci < nc)
            end = std::min(
                end, static_cast<size_t>(trace.controls[ci].seq));
        EventBatch b =
            packed.slice(static_cast<uint32_t>(ri),
                         static_cast<uint32_t>(end - ri), cursor);
        cursor += b.mem_count;
        sink.onBatch(b);
        ++nbatches;
        ri = end;
    }
    while (ci < nc)
        sink.onControl(trace.controls[ci++]);
    btel().replays.inc();
    btel().batches.inc(nbatches);
    btel().records_replayed.inc(n - first);
}

void
replayBatched(const Trace &trace, TraceSink &sink,
              uint32_t batch_records)
{
    if (batch_records == 0) {
        replay(trace, sink);
        return;
    }
    PackedTrace packed(trace);
    replayBatched(packed, sink, batch_records);
}

} // namespace pift::sim
