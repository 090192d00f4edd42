/**
 * @file
 * The retired-instruction event stream.
 *
 * This is the interface between the simulated CPU and every consumer:
 * the PIFT front-end forwards exactly what TraceRecord carries
 * (process id, per-process instruction counter, access type, address
 * range — Section 3.3 of the paper), while the full-DIFT baseline also
 * uses the register operand fields. Source registrations and sink
 * checks are ControlEvents interleaved with the records so a captured
 * Trace can be replayed offline under many parameter settings, which
 * is how the paper ran its gem5-trace analyses.
 */

#ifndef PIFT_SIM_TRACE_HH
#define PIFT_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "support/types.hh"

namespace pift::sim
{

struct EventBatch; // sim/batch.hh: SoA chunk of consecutive records

/** Memory behaviour of one retired instruction. */
enum class MemKind : uint8_t { None = 0, Load, Store };

/** One retired instruction as seen by the PIFT hardware front-end. */
struct TraceRecord
{
    SeqNum seq = 0;        //!< global retired-instruction index
    SeqNum local_seq = 0;  //!< per-process instruction counter
    ProcId pid = 0;        //!< process-specific id (PID/TTBR)
    Addr pc = 0;           //!< address of the instruction
    isa::Op op = isa::Op::Nop;

    RegIndex dst = no_reg;   //!< written register (loads/ALU)
    RegIndex dst2 = no_reg;  //!< second written register (ldrd/ldm)
    std::array<RegIndex, 3> src{no_reg, no_reg, no_reg}; //!< read regs
    uint8_t reg_count = 0;   //!< ldm/stm transfer count
    uint32_t aux = 0;        //!< svc number for Op::Svc records

    MemKind mem_kind = MemKind::None;
    Addr mem_start = 0;      //!< first byte accessed (inclusive)
    Addr mem_end = 0;        //!< last byte accessed (inclusive)
};

/** What a ControlEvent asks of the tracking backend. */
enum class ControlKind : uint8_t
{
    RegisterSource = 0, //!< taint [start,end] (source registration)
    CheckSink,          //!< query overlap of [start,end] (sink check)
    ClearAll            //!< drop all taint state (new app run)
};

/**
 * A software-level command interleaved with the instruction stream.
 * `seq` is the number of records that precede the event, so replays
 * reproduce the live interleaving exactly.
 */
struct ControlEvent
{
    SeqNum seq = 0;
    ControlKind kind = ControlKind::RegisterSource;
    ProcId pid = 0;
    Addr start = 0;
    Addr end = 0;
    uint32_t id = 0;    //!< source/sink identifier (app-defined)
};

/** A captured execution: records plus interleaved control events. */
struct Trace
{
    std::vector<TraceRecord> records;
    std::vector<ControlEvent> controls;

    void
    clear()
    {
        records.clear();
        controls.clear();
    }
};

/** Consumer of the live event stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called for every retired instruction, in order. */
    virtual void onRecord(const TraceRecord &rec) = 0;

    /**
     * Called with a chunk of consecutive records when a trace is
     * replayed batched (sim/batch.hh). The default unrolls the chunk
     * through onRecord, so per-event sinks are batch-transparent;
     * hot consumers override it with a tight SoA loop. A sink sees
     * each record exactly once — via onRecord or via one onBatch,
     * never both.
     */
    virtual void onBatch(const EventBatch &batch);

    /** Called for every software command, in stream order. */
    virtual void onControl(const ControlEvent &ev) { (void)ev; }
};

/** Fan-out point connecting the CPU and software layers to sinks. */
class EventHub
{
  public:
    /** Attach a sink; not owned. */
    void addSink(TraceSink *sink) { sinks.push_back(sink); }

    /** Detach a previously attached sink. */
    void removeSink(TraceSink *sink);

    /** Number of records published so far (assigns ControlEvent.seq). */
    SeqNum recordCount() const { return nrecords; }

    void
    publish(const TraceRecord &rec)
    {
        ++nrecords;
        for (auto *s : sinks)
            s->onRecord(rec);
    }

    void
    publish(const ControlEvent &ev)
    {
        for (auto *s : sinks)
            s->onControl(ev);
    }

  private:
    std::vector<TraceSink *> sinks;
    SeqNum nrecords = 0;
};

/** TraceSink that captures the full stream into a Trace. */
class TraceBuffer : public TraceSink
{
  public:
    void onRecord(const TraceRecord &rec) override;
    void onControl(const ControlEvent &ev) override;

    const Trace &trace() const { return data; }
    Trace takeTrace() { return std::move(data); }
    void clear() { data.clear(); }

  private:
    Trace data;
};

/**
 * Replay a captured trace into a sink, reproducing the original
 * interleaving of records and control events.
 */
void replay(const Trace &trace, TraceSink &sink);

/**
 * Resume a replay mid-stream: deliver exactly the events that
 * replay() would deliver after its first @p records_done records and
 * @p controls_done control events, in the same interleaving. The
 * cursor pair uniquely identifies a position in the merged stream, so
 * replayFrom(trace, sink, 0, 0) is identical to replay(trace, sink).
 * Used by crash recovery to re-drive the suffix a crash lost.
 */
void replayFrom(const Trace &trace, TraceSink &sink,
                SeqNum records_done, uint64_t controls_done);

} // namespace pift::sim

#endif // PIFT_SIM_TRACE_HH
