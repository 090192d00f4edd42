/**
 * @file
 * Linear-scan reference model of core::TaintStorage (tests only).
 *
 * A fixed array of params.entries slots, and every query, insert and
 * remove walks all of them — the software picture of Figure 6's CAM,
 * whose comparators all fire at once. core::TaintStorage answers the
 * same operations through a (pid, start) index, an LRU list and
 * running totals; the differentials in test_taint_storage.cc and
 * test_batch.cc hold it to this model after every operation: return
 * values, exportState(), the totals, saturation and every StorageStats
 * field. Nothing under src/ links this file.
 *
 * The model carries the multi-hit stamp rule (DESIGN.md §12): a query
 * that hits several entries stamps them in ascending prior last_use,
 * and a remove processes its overlapping entries in that order, so
 * behaviour depends on nothing exportState() drops.
 */

#ifndef PIFT_TESTS_REFERENCE_TAINT_STORAGE_HH
#define PIFT_TESTS_REFERENCE_TAINT_STORAGE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/taint_storage.hh"
#include "support/logging.hh"

namespace pift::testref
{

class ReferenceTaintStorage : public core::TaintStore
{
  public:
    explicit ReferenceTaintStorage(const core::TaintStorageParams &p)
        : params(p), entries(p.entries)
    {
        pift_assert(p.entries > 0, "taint storage needs an entry");
    }

    bool
    query(ProcId pid, const taint::AddrRange &r) override
    {
        ++stat.lookups;
        std::vector<size_t> hits = overlapping(pid, r);
        for (size_t i : hits)
            entries[i].last_use = ++clock_;
        if (!hits.empty()) {
            ++stat.lookup_hits;
            return true;
        }
        if (params.policy == core::EvictPolicy::LruSpill) {
            auto it = spill_sets.find(pid);
            if (it != spill_sets.end() && it->second.overlaps(r)) {
                ++stat.lookup_hits;
                ++stat.spill_hits;
                return true;
            }
        }
        return false;
    }

    bool
    insert(ProcId pid, const taint::AddrRange &r) override
    {
        if (!r.valid())
            return false;
        ++stat.inserts;
        taint::AddrRange merged = r;
        uint64_t absorbed = 0;
        size_t slot = npos;
        // Absorb every same-pid entry touching the growing merged
        // range, repeating until stable.
        bool grew = true;
        while (grew) {
            grew = false;
            for (size_t i = 0; i < entries.size(); ++i) {
                Entry &e = entries[i];
                if (!e.valid || e.pid != pid || !e.range.touches(merged))
                    continue;
                merged.start = std::min(merged.start, e.range.start);
                merged.end = std::max(merged.end, e.range.end);
                absorbed += e.range.bytes();
                e.valid = false;
                if (slot == npos)
                    slot = i;
                else
                    ++stat.coalesces;
                grew = true;
            }
        }
        if (slot == npos)
            slot = allocEntry(pid);
        if (slot == npos)
            return false;
        if (params.policy == core::EvictPolicy::LruSpill) {
            auto it = spill_sets.find(pid);
            if (it != spill_sets.end()) {
                uint64_t spilled = it->second.bytes();
                if (it->second.remove(merged))
                    absorbed += spilled - it->second.bytes();
                if (it->second.empty())
                    spill_sets.erase(it);
            }
        }
        entries[slot] = {pid, merged, true, ++clock_};
        stat.max_entries_used = std::max(stat.max_entries_used,
                                         validEntries());
        return merged.bytes() > absorbed;
    }

    bool
    remove(ProcId pid, const taint::AddrRange &r) override
    {
        if (!r.valid())
            return false;
        ++stat.removes;
        bool changed = false;
        for (size_t i : overlapping(pid, r)) {
            Entry &e = entries[i];
            // An earlier split's allocation may have evicted this one.
            if (!e.valid || e.pid != pid || !e.range.overlaps(r))
                continue;
            changed = true;
            taint::AddrRange cur = e.range;
            bool keep_left = cur.start < r.start;
            bool keep_right = cur.end > r.end;
            if (keep_left && keep_right) {
                e.range = taint::AddrRange(cur.start, r.start - 1);
                taint::AddrRange right(r.end + 1, cur.end);
                size_t extra = allocEntry(pid);
                if (extra != npos) {
                    entries[extra] = {pid, right, true, ++clock_};
                    stat.max_entries_used = std::max(
                        stat.max_entries_used, validEntries());
                }
            } else if (keep_left) {
                e.range = taint::AddrRange(cur.start, r.start - 1);
            } else if (keep_right) {
                e.range = taint::AddrRange(r.end + 1, cur.end);
            } else {
                e.valid = false;
            }
        }
        if (params.policy == core::EvictPolicy::LruSpill) {
            auto it = spill_sets.find(pid);
            if (it != spill_sets.end() && it->second.remove(r))
                changed = true;
        }
        return changed;
    }

    void
    clear() override
    {
        for (auto &e : entries)
            e.valid = false;
        spill_sets.clear();
        saturated_pids.clear();
    }

    uint64_t
    bytes() const override
    {
        uint64_t total = 0;
        for (const auto &e : entries)
            if (e.valid)
                total += e.range.bytes();
        for (const auto &[pid, set] : spill_sets)
            total += set.bytes();
        return total;
    }

    size_t
    rangeCount() const override
    {
        return validEntries() + spilledRanges();
    }

    bool
    saturated(ProcId pid) const override
    {
        return saturated_pids.count(pid) > 0;
    }

    void clearSaturation() override { saturated_pids.clear(); }

    const core::StorageStats &stats() const { return stat; }

    /** The LRU clock: it advances once per entry stamped. */
    uint64_t clock() const { return clock_; }

    core::TaintStorageState
    exportState() const
    {
        core::TaintStorageState state;
        state.params = params;
        state.clock = clock_;
        for (const auto &e : entries)
            if (e.valid)
                state.entries.push_back({e.pid, e.range, e.last_use});
        std::sort(state.entries.begin(), state.entries.end(),
                  [](const auto &a, const auto &b) {
                      return a.last_use < b.last_use;
                  });
        for (const auto &[pid, set] : spill_sets)
            state.spills.emplace_back(pid, set.ranges());
        state.saturated.assign(saturated_pids.begin(),
                               saturated_pids.end());
        return state;
    }

    void
    restoreState(const core::TaintStorageState &state)
    {
        pift_assert(state.entries.size() <= entries.size(),
                    "reference restore: too many entries");
        for (auto &e : entries)
            e.valid = false;
        for (size_t i = 0; i < state.entries.size(); ++i) {
            const auto &se = state.entries[i];
            entries[i] = {se.pid, se.range, true, se.last_use};
        }
        spill_sets.clear();
        for (const auto &[pid, ranges] : state.spills) {
            taint::RangeSet &set = spill_sets[pid];
            for (const auto &r : ranges)
                set.insert(r);
        }
        saturated_pids.clear();
        saturated_pids.insert(state.saturated.begin(),
                              state.saturated.end());
        clock_ = state.clock;
    }

    size_t
    validEntries() const
    {
        size_t n = 0;
        for (const auto &e : entries)
            n += e.valid;
        return n;
    }

    size_t
    spilledRanges() const
    {
        size_t n = 0;
        for (const auto &[pid, set] : spill_sets)
            n += set.rangeCount();
        return n;
    }

  private:
    struct Entry
    {
        ProcId pid = 0;
        taint::AddrRange range;
        bool valid = false;
        uint64_t last_use = 0;
    };

    static constexpr size_t npos = ~size_t(0);

    /** Slots of @p pid's entries overlapping @p r, by prior last_use. */
    std::vector<size_t>
    overlapping(ProcId pid, const taint::AddrRange &r) const
    {
        std::vector<size_t> hits;
        for (size_t i = 0; i < entries.size(); ++i)
            if (entries[i].valid && entries[i].pid == pid &&
                entries[i].range.overlaps(r))
                hits.push_back(i);
        std::sort(hits.begin(), hits.end(), [&](size_t a, size_t b) {
            return entries[a].last_use < entries[b].last_use;
        });
        return hits;
    }

    /** First free slot, else evict the LRU entry per policy. */
    size_t
    allocEntry(ProcId pid)
    {
        size_t victim = npos;
        uint64_t oldest = ~0ull;
        for (size_t i = 0; i < entries.size(); ++i) {
            if (!entries[i].valid)
                return i;
            if (entries[i].last_use < oldest) {
                oldest = entries[i].last_use;
                victim = i;
            }
        }
        Entry &v = entries[victim];
        switch (params.policy) {
          case core::EvictPolicy::LruSpill:
            ++stat.evictions;
            spill_sets[v.pid].insert(v.range);
            break;
          case core::EvictPolicy::LruDrop:
            ++stat.evictions;
            ++stat.dropped;
            markSaturated(v.pid);
            break;
          case core::EvictPolicy::DropNew:
            ++stat.dropped;
            markSaturated(pid);
            return npos;
        }
        v.valid = false;
        return victim;
    }

    void
    markSaturated(ProcId pid)
    {
        ++stat.saturation_events;
        saturated_pids.insert(pid);
    }

    core::TaintStorageParams params;
    std::vector<Entry> entries;
    std::map<ProcId, taint::RangeSet> spill_sets;
    std::set<ProcId> saturated_pids; //!< ascending, as exported
    core::StorageStats stat;
    uint64_t clock_ = 0;
};

} // namespace pift::testref

#endif // PIFT_TESTS_REFERENCE_TAINT_STORAGE_HH
