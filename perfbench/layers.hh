/**
 * @file
 * Decorators the benchmark wraps around public layer interfaces to
 * attribute time from outside the program: a timing sim::TraceSink in
 * front of the tracker, a timing core::TaintStore under it, a timing
 * core::MutationJournal in front of a persist::DurableSession. Plus the
 * ServiceEvent-to-tracker translation a service::Session performs, so
 * the benchmark can replay a tenant's stream without the service.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "common.hh"
#include "core/journal.hh"
#include "core/taint_store.hh"
#include "persist/durable.hh"
#include "service/session.hh"
#include "sim/batch.hh"
#include "sim/trace.hh"

namespace perfbench
{

/** Time and call count accumulated by one timed interface. */
struct LayerClock
{
    double ns = 0.0;
    uint64_t calls = 0;

    /**
     * Time spent inside the calls, less the clock reads the timing
     * itself adds (@p clock_ns per read; see clockReadNs()).
     */
    double netNs(double clock_ns) const
    {
        return ns - clock_ns * static_cast<double>(calls);
    }
};

inline LayerClock
operator+(const LayerClock &a, const LayerClock &b)
{
    return {a.ns + b.ns, a.calls + b.calls};
}

/**
 * Self time of a timed region whose calls contain the timed calls of
 * @p inner: each inner call adds its own time plus two clock reads.
 */
inline double
selfNs(const LayerClock &outer, const LayerClock &inner, double clock_ns)
{
    return outer.netNs(clock_ns) - inner.netNs(clock_ns) -
        2.0 * clock_ns * static_cast<double>(inner.calls);
}

/** Cost of one steady_clock read, calibrated on this machine (ns). */
double clockReadNs();

/** Run @p fn, charging its wall time to @p clock. */
template <typename Fn>
auto
timeInto(LayerClock &clock, Fn &&fn)
{
    struct Charge
    {
        LayerClock &c;
        uint64_t t0 = nowNs();
        ~Charge()
        {
            c.ns += static_cast<double>(nowNs() - t0);
            ++c.calls;
        }
    } charge{clock};
    return fn();
}

/** A TaintStore that forwards every call to another one. */
class ForwardingStore : public pift::core::TaintStore
{
  public:
    explicit ForwardingStore(pift::core::TaintStore &inner) : inner_(inner) {}

    bool query(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        return inner_.query(pid, r);
    }
    bool insert(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        return inner_.insert(pid, r);
    }
    bool remove(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        return inner_.remove(pid, r);
    }
    void clear() override { inner_.clear(); }
    uint64_t bytes() const override { return inner_.bytes(); }
    size_t rangeCount() const override { return inner_.rangeCount(); }
    bool saturated(pift::ProcId pid) const override
    {
        return inner_.saturated(pid);
    }
    void clearSaturation() override { inner_.clearSaturation(); }

  protected:
    pift::core::TaintStore &inner_;
};

/**
 * Times every store operation. `other` covers the occupancy reads
 * (bytes, rangeCount, saturated) the tracker makes after each
 * effective operation — storage work too.
 */
class TimedStore : public ForwardingStore
{
  public:
    using ForwardingStore::ForwardingStore;

    bool query(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        return timeInto(q, [&] { return inner_.query(pid, r); });
    }
    bool insert(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        return timeInto(ins, [&] { return inner_.insert(pid, r); });
    }
    bool remove(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        return timeInto(rem, [&] { return inner_.remove(pid, r); });
    }
    uint64_t bytes() const override
    {
        return timeInto(other, [&] { return inner_.bytes(); });
    }
    size_t rangeCount() const override
    {
        return timeInto(other, [&] { return inner_.rangeCount(); });
    }
    bool saturated(pift::ProcId pid) const override
    {
        return timeInto(other, [&] { return inner_.saturated(pid); });
    }

    /** Every timed call, summed. */
    LayerClock total() const
    {
        return {q.ns + ins.ns + rem.ns + other.ns,
                q.calls + ins.calls + rem.calls + other.calls};
    }

    LayerClock q, ins, rem;
    mutable LayerClock other;
};

/**
 * The planted defect of the benchmark's self-test: a store that
 * silently drops the first insert it is asked for.
 */
class DropFirstInsert : public ForwardingStore
{
  public:
    using ForwardingStore::ForwardingStore;

    bool insert(pift::ProcId pid, const pift::taint::AddrRange &r) override
    {
        if (!dropped_) {
            dropped_ = true;
            return false;
        }
        return inner_.insert(pid, r);
    }

  private:
    bool dropped_ = false;
};

/** Times every call into the sink behind it (the tracker). */
class TimedSink : public pift::sim::TraceSink
{
  public:
    explicit TimedSink(pift::sim::TraceSink &inner) : inner_(inner) {}

    void onRecord(const pift::sim::TraceRecord &rec) override
    {
        timeInto(clock, [&] { inner_.onRecord(rec); });
    }
    void onBatch(const pift::sim::EventBatch &batch) override
    {
        timeInto(clock, [&] { inner_.onBatch(batch); });
    }
    void onControl(const pift::sim::ControlEvent &ev) override
    {
        timeInto(clock, [&] { inner_.onControl(ev); });
    }

    LayerClock clock;

  private:
    pift::sim::TraceSink &inner_;
};

/**
 * Times journal appends into a DurableSession and runs its snapshot
 * cadence itself (the session is built with snapshot_every = 0), so
 * each snapshotNow() gets its own span and timing. Before each
 * rotation it flushes the WAL and adds its size to walBytes().
 */
class TimedJournal : public pift::core::MutationJournal
{
  public:
    TimedJournal(pift::persist::DurableSession &durable,
                 uint64_t snapshot_every, SpanLog &spans, uint32_t tenant)
        : durable_(durable), every_(snapshot_every), spans_(spans),
          tenant_(tenant)
    {}

    void append(const pift::core::JournalRecord &rec) override;

    /** WAL bytes written so far, across every rotation. */
    uint64_t walBytes() const;

    LayerClock appends, snapshots;

  private:
    pift::persist::DurableSession &durable_;
    uint64_t every_;
    SpanLog &spans_;
    uint32_t tenant_;
    uint64_t since_snapshot_ = 0;
    uint64_t rotated_bytes_ = 0;
};

/**
 * Feeds ServiceEvents to a TraceSink with exactly the translation
 * service::Session::apply makes (synthetic global seq, the event's
 * own local_seq, controls stamped with the records fed so far).
 */
class EventFeeder
{
  public:
    EventFeeder(pift::ProcId pid, pift::sim::TraceSink &sink)
        : pid_(pid), sink_(sink)
    {}

    void apply(const pift::service::ServiceEvent &ev);

  private:
    pift::ProcId pid_;
    pift::sim::TraceSink &sink_;
    pift::SeqNum records_fed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
