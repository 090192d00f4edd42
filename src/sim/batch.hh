/**
 * @file
 * Batched, cache-friendly view of the retired-instruction stream.
 *
 * The single-event path (one virtual TraceSink::onRecord call per
 * retired instruction) spends most of its time on call overhead and
 * on dragging full TraceRecords through the cache when the tracker
 * only reads four fields of the memory events. This header is the
 * decoupling queue between execution and tracking that the adaptive
 * IFT-coprocessor line of work argues for: events are accumulated
 * into fixed-size chunks whose hot fields are laid out as a
 * structure-of-arrays (separate dense arrays for pid / pc / address
 * range / kind), so the tracker's window automaton runs a tight loop
 * over compact arrays and skips non-memory events entirely via the
 * index array.
 *
 * Per-event consumers keep working untouched: every batch also
 * carries the full records, and TraceSink::onBatch defaults to
 * unrolling them through onRecord. The batched and per-event paths
 * are verdict- and stats-identical by construction — handleMem-style
 * consumers process the same fields in the same order — and a
 * randomized differential over the whole app registry pins it
 * (tests/test_batch.cc).
 */

#ifndef PIFT_SIM_BATCH_HH
#define PIFT_SIM_BATCH_HH

#include <cstdint>
#include <vector>

#include "sim/trace.hh"
#include "support/types.hh"

namespace pift::sim
{

/** Default events-per-chunk of the batched pipeline. */
inline constexpr uint32_t default_batch_records = 1024;

/**
 * One chunk of consecutive retired-instruction events.
 *
 * `records`/`count` is the exact AoS run (for per-event unrolling);
 * the remaining pointers are parallel SoA arrays describing only the
 * `mem_count` memory events inside the run. `mem_index[k]` is the
 * record position of memory event k *relative to `index_base`* — a
 * batch sliced out of a PackedTrace reuses the trace-wide arrays, so
 * in-batch positions are `mem_index[k] - index_base`.
 *
 * All pointers borrow storage owned by the producer (a PackedTrace)
 * and are valid only for the duration of the onBatch call.
 */
struct EventBatch
{
    const TraceRecord *records = nullptr;
    uint32_t count = 0;       //!< records in the batch

    uint32_t mem_count = 0;   //!< memory events in the batch
    uint32_t index_base = 0;  //!< subtract from mem_index for position
    const uint32_t *mem_index = nullptr;
    const ProcId *pid = nullptr;
    const SeqNum *local_seq = nullptr;
    const Addr *pc = nullptr;
    const Addr *start = nullptr; //!< first byte accessed (inclusive)
    const Addr *end = nullptr;   //!< last byte accessed (inclusive)
    const uint8_t *kind = nullptr; //!< MemKind values (Load/Store)
};

/**
 * A Trace packed once into the SoA layout so repeated replays (the
 * accuracy grids replay each capture once per NI, and again from
 * every fork point) pay the packing pass once instead of per replay.
 * Immutable after construction; safe to share read-only across pool
 * workers.
 */
class PackedTrace
{
  public:
    explicit PackedTrace(const Trace &trace);

    const Trace &trace() const { return *src; }

    /** Memory events in the whole trace. */
    uint32_t memCount() const
    {
        return static_cast<uint32_t>(mem_index_.size());
    }

    /**
     * Batch view of records [first, first + count). @p mem_cursor is
     * the index into the memory-event arrays of the first memory
     * event at or past @p first — callers iterating sequentially
     * thread it through slices to avoid re-searching; sliceAt()
     * computes it when unknown.
     */
    EventBatch slice(uint32_t first, uint32_t count,
                     uint32_t mem_cursor) const;

    /** slice() with the memory cursor located by binary search. */
    EventBatch sliceAt(uint32_t first, uint32_t count) const;

    /**
     * Index into the memory-event arrays of the first memory event at
     * record position >= @p first.
     */
    uint32_t memCursor(uint32_t first) const;

  private:
    const Trace *src;
    std::vector<uint32_t> mem_index_; //!< record position, ascending
    std::vector<ProcId> pid_;
    std::vector<SeqNum> local_seq_;
    std::vector<Addr> pc_;
    std::vector<Addr> start_;
    std::vector<Addr> end_;
    std::vector<uint8_t> kind_;
};

/**
 * Replay a captured trace into a sink through the batched pipeline,
 * reproducing the original record/control interleaving exactly:
 * batches break at every control event, so a sink observes the same
 * ordered stream replay() delivers, just in chunks. batch_records ==
 * 0 falls back to the per-event replay().
 */
void replayBatched(const Trace &trace, TraceSink &sink,
                   uint32_t batch_records = default_batch_records);

/** replayBatched() over a trace packed ahead of time. */
void replayBatched(const PackedTrace &packed, TraceSink &sink,
                   uint32_t batch_records = default_batch_records);

/**
 * replayFrom() through the batched pipeline: deliver exactly the
 * events replayBatched() would deliver after its first @p records_done
 * records and @p controls_done control events, in the same
 * interleaving. replayBatchedFrom(packed, sink, 0, 0) is
 * replayBatched(packed, sink).
 */
void replayBatchedFrom(const PackedTrace &packed, TraceSink &sink,
                       SeqNum records_done, uint64_t controls_done,
                       uint32_t batch_records = default_batch_records);

} // namespace pift::sim

#endif // PIFT_SIM_BATCH_HH
