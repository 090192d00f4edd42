/**
 * @file
 * Backend interface for taint state, plus the ideal (unbounded)
 * implementation.
 *
 * The PIFT tracking algorithm (Algorithm 1) operates on the set R of
 * tainted address ranges through three operations: overlap query on a
 * load, taint (add) on an in-window store, untaint (remove) on an
 * out-of-window store. Section 3.3 of the paper describes several
 * physical realizations (a cache of arbitrary ranges, a fixed
 * word-granularity tag store, secondary storage with eviction); this
 * interface lets the tracker run against any of them, and against the
 * exact unbounded reference used for accuracy experiments.
 *
 * All entries are tagged with the process-specific id, matching the
 * hardware entry layout in Figure 6.
 */

#ifndef PIFT_CORE_TAINT_STORE_HH
#define PIFT_CORE_TAINT_STORE_HH

#include <cstdint>
#include <map>

#include "support/types.hh"
#include "taint/range_set.hh"

namespace pift::core
{

/**
 * Tri-state outcome of a sink check. Bounded storage and a lossy
 * front-end can lose taint (Section 3.3: LRU-drop / drop-new "cost
 * only false negatives"); instead of silently answering Clean, a
 * check against a backend that has lost state for the process
 * degrades to MaybeTainted, so exhaustion yields conservative
 * reporting rather than silent false negatives.
 */
enum class SinkVerdict : uint8_t
{
    Clean = 0,        //!< no overlap, and no state was ever lost
    Tainted = 1,      //!< the checked range overlaps live taint
    MaybeTainted = 2  //!< no overlap, but taint may have been lost
};

/** Printable name of a verdict (bench tables, diagnostics). */
const char *sinkVerdictName(SinkVerdict v);

/** The more severe of two verdicts: Tainted > MaybeTainted > Clean. */
inline SinkVerdict
worstVerdict(SinkVerdict a, SinkVerdict b)
{
    if (a == SinkVerdict::Tainted || b == SinkVerdict::Tainted)
        return SinkVerdict::Tainted;
    if (a == SinkVerdict::MaybeTainted || b == SinkVerdict::MaybeTainted)
        return SinkVerdict::MaybeTainted;
    return SinkVerdict::Clean;
}

/** Abstract taint-state backend used by the PIFT tracker. */
class TaintStore
{
  public:
    virtual ~TaintStore() = default;

    /** Overlap query: does [r] intersect any tainted range of @p pid? */
    virtual bool query(ProcId pid, const taint::AddrRange &r) = 0;

    /**
     * Taint @p r for @p pid.
     * @return true when taint state changed (new bytes covered)
     */
    virtual bool insert(ProcId pid, const taint::AddrRange &r) = 0;

    /**
     * Untaint @p r for @p pid.
     * @return true when taint state changed (bytes removed)
     */
    virtual bool remove(ProcId pid, const taint::AddrRange &r) = 0;

    /** Drop all state for every process. */
    virtual void clear() = 0;

    /** Total tainted bytes currently represented (all processes). */
    virtual uint64_t bytes() const = 0;

    /** Number of distinct range entries currently represented. */
    virtual size_t rangeCount() const = 0;

    /**
     * True when taint state for @p pid may have been lost (capacity
     * eviction without spill, refused insertion, injected storage
     * fault). Exact backends always answer false. Once set, only
     * clear()/clearSaturation() resets it — losing a range poisons
     * every later negative answer for that process.
     */
    virtual bool
    saturated(ProcId pid) const
    {
        (void)pid;
        return false;
    }

    /** Reset all saturation flags (exact backends: no-op). */
    virtual void clearSaturation() {}
};

/**
 * Unbounded, exact taint store: one coalescing RangeSet per process.
 * This is the semantics Algorithm 1 is specified against; the
 * hardware models in taint_storage.hh approximate it under capacity
 * limits.
 */
class IdealRangeStore : public TaintStore
{
  public:
    IdealRangeStore() = default;
    ~IdealRangeStore() override;

    // The destructor publishes the batched tallies, so a copy would
    // publish them twice; copyRangesFrom() copies the ranges alone.
    IdealRangeStore(const IdealRangeStore &) = delete;
    IdealRangeStore &operator=(const IdealRangeStore &) = delete;

    /** Replace this store's ranges with @p other's (no tallies). */
    void copyRangesFrom(const IdealRangeStore &other) { sets = other.sets; }

    bool query(ProcId pid, const taint::AddrRange &r) override;
    bool insert(ProcId pid, const taint::AddrRange &r) override;
    bool remove(ProcId pid, const taint::AddrRange &r) override;
    void clear() override;
    uint64_t bytes() const override;
    size_t rangeCount() const override;

    /** Per-process view (for tests and sink diagnostics). */
    const taint::RangeSet &rangesFor(ProcId pid);

  private:
    std::map<ProcId, taint::RangeSet> sets;

    // Telemetry tallies. This store is the replay hot path, so the
    // per-op cost is kept to a plain member increment; the totals are
    // published to the core.range_store.* counters on destruction.
    uint64_t tel_queries = 0;
    uint64_t tel_hits = 0;
    uint64_t tel_inserts = 0;
    uint64_t tel_removes = 0;
};

} // namespace pift::core

#endif // PIFT_CORE_TAINT_STORE_HH
