/**
 * @file
 * Hardware taint-storage models (Section 3.3, Figure 6).
 *
 * TaintStorage models the on-chip cache of arbitrary-length ranges:
 * a fixed number of entries, each holding {process id, start, end,
 * valid}; a lookup compares all entries in parallel (constant time in
 * hardware). The model reaches the same answer through a (pid, start)
 * index over the live entries, and charges every comparator the CAM
 * would fire to StorageStats::entry_compares. When the cache fills,
 * the paper offers two options: evict with LRU to a secondary
 * storage in main memory (costing a miss-style delay), or simply drop
 * the entry (no delay, possible false negatives). Both are modeled,
 * plus coalescing of overlapping/adjacent same-process entries, which
 * keeps entry pressure at the Figure 17 levels.
 *
 * WordTaintStorage models the fixed-granularity alternative: taint a
 * whole 2^r-byte block when any byte in it is tainted, storing only
 * the (32-r)-bit block numbers. Cheaper entries and faster compare,
 * but overtaints (measured by the ablation bench).
 */

#ifndef PIFT_CORE_TAINT_STORAGE_HH
#define PIFT_CORE_TAINT_STORAGE_HH

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/taint_store.hh"
#include "provenance/recorder.hh"
#include "support/types.hh"
#include "taint/range_set.hh"

namespace pift::core
{

/** What to do when a new range finds no free entry. */
enum class EvictPolicy : uint8_t
{
    LruSpill, //!< evict the LRU entry to secondary storage (exact)
    LruDrop,  //!< evict the LRU entry and forget it (may lose taint)
    DropNew   //!< refuse the insertion (may lose taint)
};

/** Operation counters for the hardware model. */
struct StorageStats
{
    uint64_t lookups = 0;          //!< query operations issued
    uint64_t lookup_hits = 0;      //!< queries that matched an entry
    uint64_t spill_hits = 0;       //!< hits served by secondary storage
    uint64_t inserts = 0;          //!< taint commands
    uint64_t removes = 0;          //!< untaint commands
    uint64_t evictions = 0;        //!< entries pushed out by capacity
    uint64_t dropped = 0;          //!< entries lost (no spill)
    uint64_t saturation_events = 0; //!< times a process lost a range
    uint64_t coalesces = 0;        //!< entries merged on insert
    size_t max_entries_used = 0;   //!< peak valid-entry count
    /**
     * CAM comparisons (cost proxy): every lookup, remove and
     * coalescing insert fires all params.entries comparators.
     */
    uint64_t entry_compares = 0;
};

/** Configuration of the range-entry cache. */
struct TaintStorageParams
{
    /**
     * Entry count. The paper sizes a 32 KiB on-chip memory at 12
     * bytes/entry = ~2730 PID-tagged entries (4096 without tags).
     */
    size_t entries = 2730;
    EvictPolicy policy = EvictPolicy::LruSpill;
    /** Merge overlapping/adjacent same-pid entries on insert. */
    bool coalesce = true;
};

/**
 * Serializable state of a TaintStorage (DESIGN.md §11). Captures
 * everything that determines future behaviour: the valid entries with
 * their LRU stamps (in canonical ascending last_use order — stamps
 * are unique because every touch advances the clock), the LRU clock
 * itself, the spilled range sets, and the per-process saturation
 * flags. Restoring this state into a storage with equal params
 * reproduces the original's behaviour exactly, because every decision
 * rests on pid, range and last_use alone: a query stamps the entries
 * it hits in ascending prior last_use, a remove processes overlapping
 * entries in that order, eviction takes the smallest last_use, and a
 * coalescing insert absorbs the same entries in any order. Operation
 * counters (StorageStats) are observability, not state, and are not
 * captured.
 */
struct TaintStorageState
{
    /** Config the state was exported under (restore must match). */
    TaintStorageParams params;

    struct Entry
    {
        ProcId pid = 0;
        taint::AddrRange range;
        uint64_t last_use = 0;
    };

    uint64_t clock = 0;
    std::vector<Entry> entries;             //!< ascending last_use
    /** Spilled ranges per process, ascending pid / ascending start. */
    std::vector<std::pair<ProcId, std::vector<taint::AddrRange>>>
        spills;
    std::vector<ProcId> saturated;          //!< ascending pid

    /** Tainted bytes represented (cache + spill). */
    uint64_t bytes() const;

    /** Range entries represented (cache + spill). */
    size_t rangeCount() const;

    /**
     * True when exportState() could have produced this state: 1 to
     * 2^32 - 2 entries configured, at most that many valid entries in
     * ascending, unique last_use no greater than the clock, and with
     * coalescing, no two entries of one pid that overlap or touch.
     * restoreState() requires it; snapshot decoding rejects a state
     * without it as corrupt.
     */
    bool wellFormed() const;

    bool operator==(const TaintStorageState &other) const;
};

/** Fixed-capacity cache of tainted ranges (Figure 6). */
class TaintStorage : public TaintStore
{
  public:
    explicit TaintStorage(const TaintStorageParams &params);

    bool query(ProcId pid, const taint::AddrRange &r) override;
    bool insert(ProcId pid, const taint::AddrRange &r) override;
    bool remove(ProcId pid, const taint::AddrRange &r) override;
    void clear() override;
    uint64_t bytes() const override;
    size_t rangeCount() const override;

    /**
     * True once any range of @p pid has been lost to LruDrop
     * eviction, a DropNew refusal, or a failed split allocation —
     * from then on a negative query may be a false negative, and sink
     * checks must degrade to MaybeTainted (Section 3.3's FN-only
     * claim made observable).
     */
    bool saturated(ProcId pid) const override;
    void clearSaturation() override;

    const StorageStats &stats() const { return stat; }

    /**
     * Attach a provenance flight recorder (may be null to detach).
     * The storage emits Spill/StorageLoss records for every eviction
     * and refusal, stamped with the cursor the tracker above advances.
     * No-op in PIFT_PROVENANCE=OFF builds.
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
     * Export the complete semantic state in canonical order (see
     * TaintStorageState). Used by the persist layer's snapshots and
     * by the crash-recovery differential's equality checks.
     */
    TaintStorageState exportState() const;

    /**
     * Replace all state with @p state, which must be well formed and
     * exported under the same params (both asserted). Operation
     * counters are left untouched.
     */
    void restoreState(const TaintStorageState &state);

    /** Valid entries currently held on chip. */
    size_t validEntries() const;

    /** Ranges spilled to the in-memory secondary storage. */
    size_t spilledRanges() const;

  private:
    using Slot = uint32_t;
    static constexpr Slot nil = ~Slot(0);

    /** A live entry, or a free slot (whose range is invalid). */
    struct Entry
    {
        ProcId pid = 0;
        taint::AddrRange range;
        uint64_t last_use = 0; //!< LRU stamp
        Slot older = nil;      //!< LRU neighbours, in stamp order
        Slot newer = nil;
    };

    /**
     * Index key over live entries: by pid, then start. The slot breaks
     * ties, since without coalescing two entries may share a start.
     */
    struct Key
    {
        ProcId pid;
        Addr start;
        Slot slot;
        auto operator<=>(const Key &) const = default;
    };

    /**
     * A free slot for a new entry. With all params.entries live, the
     * LRU entry is evicted per policy first; DropNew refuses instead
     * and returns nil.
     * @param want the range the caller is trying to store — the range
     *             lost when the policy refuses the allocation
     * @param drop_cause the provenance cause of such a refusal
     *                   (DropNewRefusal from insert, SplitAllocFail
     *                   from a remove split)
     */
    Slot allocEntry(ProcId pid, const taint::AddrRange &want,
                    provenance::ProvCause drop_cause);

    /** Make slot @p s a live entry, newest in LRU order. */
    void link(Slot s, ProcId pid, const taint::AddrRange &r,
              uint64_t stamp);

    /** Free live slot @p s. */
    void unlink(Slot s);

    /** Give live slot @p s the next stamp, making it the newest. */
    void touch(Slot s);

    /** Change live slot @p s's range to @p r. */
    void reshape(Slot s, const taint::AddrRange &r);

    /** Take slot @p s out of the LRU list / append it as newest. */
    void detachLru(Slot s);
    void appendLru(Slot s);

    /** Drop every entry (spills and saturation are left alone). */
    void dropEntries();

    /**
     * Fill hits with @p pid's live entries that start at or before
     * @p hi and end at or after @p lo, in ascending last_use. With
     * coalescing, one pid's entries are disjoint and never adjacent,
     * so the walk back from @p hi stops at the first entry that ends
     * before @p lo.
     */
    void collect(ProcId pid, Addr lo, Addr hi);

    /** Run @p edit on @p set, keeping the spill totals current. */
    template <typename Edit>
    bool editSpill(taint::RangeSet &set, Edit edit);

    /** Record that @p pid lost a range (sets the saturation flag). */
    void markSaturated(ProcId pid);

    TaintStorageParams params;
    std::vector<Entry> slots;     //!< grown on demand, <= params.entries
    std::vector<Slot> free_slots;
    std::set<Key> index;          //!< one key per live entry
    Slot lru_oldest = nil;        //!< the eviction victim
    Slot lru_newest = nil;
    uint64_t cache_bytes = 0;     //!< bytes in live entries
    uint64_t spill_bytes = 0;     //!< bytes in spill_sets
    size_t spill_ranges = 0;      //!< ranges in spill_sets
    std::vector<Slot> hits;       //!< collect()'s result, reused so
                                  //!< an op allocates nothing
    // Secondary storage in "main memory" (LruSpill policy only).
    std::map<ProcId, taint::RangeSet> spill_sets;
    std::unordered_set<ProcId> saturated_pids;
    StorageStats stat;
#if defined(PIFT_PROVENANCE_ENABLED)
    // Guarded: zero bytes in the storage model when compiled out.
    provenance::Recorder *recorder_ = nullptr;
#endif
    uint64_t clock = 0;
};

/** Fixed-granularity (2^r-byte block) tag store. */
class WordTaintStorage : public TaintStore
{
  public:
    /** @param granularity_log2 r: block size is 2^r bytes (r >= 0). */
    explicit WordTaintStorage(unsigned granularity_log2 = 2);

    bool query(ProcId pid, const taint::AddrRange &r) override;
    bool insert(ProcId pid, const taint::AddrRange &r) override;
    bool remove(ProcId pid, const taint::AddrRange &r) override;
    void clear() override;

    /** Bytes covered by tainted blocks (includes overtaint). */
    uint64_t bytes() const override;
    size_t rangeCount() const override;

    /** Block size in bytes. */
    uint64_t blockBytes() const { return 1ull << gran; }

  private:
    uint64_t key(ProcId pid, Addr block) const;

    unsigned gran;
    std::unordered_set<uint64_t> blocks;
};

} // namespace pift::core

#endif // PIFT_CORE_TAINT_STORAGE_HH
