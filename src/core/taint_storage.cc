#include "core/taint_storage.hh"

#include <algorithm>
#include <tuple>

#include "support/logging.hh"
#include "telemetry/registry.hh"

namespace pift::core
{

namespace
{

/** Range-cache instruments (the on-chip taint storage of Figure 6). */
struct StorageTel
{
    telemetry::Counter &inserts =
        telemetry::counter("core.storage.inserts");
    telemetry::Counter &removes =
        telemetry::counter("core.storage.removes");
    telemetry::Counter &lookups =
        telemetry::counter("core.storage.lookups");
    telemetry::Counter &hits =
        telemetry::counter("core.storage.lookup_hits");
    telemetry::Counter &spill_hits =
        telemetry::counter("core.storage.spill_hits");
    telemetry::Counter &evictions =
        telemetry::counter("core.storage.evictions");
    telemetry::Counter &drops =
        telemetry::counter("core.storage.drops");
    telemetry::Counter &coalesces =
        telemetry::counter("core.storage.coalesces");
};

StorageTel &
stel()
{
    static StorageTel t;
    return t;
}

} // anonymous namespace

uint64_t
TaintStorageState::bytes() const
{
    uint64_t total = 0;
    for (const auto &e : entries)
        total += e.range.bytes();
    for (const auto &[pid, ranges] : spills)
        for (const auto &r : ranges)
            total += r.bytes();
    return total;
}

size_t
TaintStorageState::rangeCount() const
{
    size_t n = entries.size();
    for (const auto &[pid, ranges] : spills)
        n += ranges.size();
    return n;
}

bool
TaintStorageState::wellFormed() const
{
    if (params.entries == 0 || params.entries >= ~uint32_t(0) ||
        entries.size() > params.entries)
        return false;
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (!e.range.valid() || e.last_use > clock ||
            (i > 0 && e.last_use <= entries[i - 1].last_use))
            return false;
    }
    std::vector<const Entry *> by_start;
    by_start.reserve(entries.size());
    for (const auto &e : entries)
        by_start.push_back(&e);
    std::sort(by_start.begin(), by_start.end(),
              [](const Entry *a, const Entry *b) {
                  return std::tie(a->pid, a->range.start) <
                      std::tie(b->pid, b->range.start);
              });
    for (size_t i = 1; i < by_start.size(); ++i) {
        const Entry &a = *by_start[i - 1], &b = *by_start[i];
        if (a.pid == b.pid && a.range.touches(b.range))
            return false;
    }
    return true;
}

bool
TaintStorageState::operator==(const TaintStorageState &other) const
{
    auto entryEq = [](const Entry &a, const Entry &b) {
        return a.pid == b.pid && a.range.start == b.range.start &&
            a.range.end == b.range.end && a.last_use == b.last_use;
    };
    auto spillEq = [](const std::pair<ProcId,
                          std::vector<taint::AddrRange>> &a,
                      const std::pair<ProcId,
                          std::vector<taint::AddrRange>> &b) {
        if (a.first != b.first || a.second.size() != b.second.size())
            return false;
        for (size_t i = 0; i < a.second.size(); ++i)
            if (a.second[i].start != b.second[i].start ||
                a.second[i].end != b.second[i].end)
                return false;
        return true;
    };
    return params.entries == other.params.entries &&
        params.policy == other.params.policy &&
        clock == other.clock &&
        std::equal(entries.begin(), entries.end(),
                   other.entries.begin(), other.entries.end(),
                   entryEq) &&
        std::equal(spills.begin(), spills.end(), other.spills.begin(),
                   other.spills.end(), spillEq) &&
        saturated == other.saturated;
}

TaintStorage::TaintStorage(const TaintStorageParams &p) : params(p)
{
    pift_assert(p.entries > 0, "taint storage needs at least one entry");
    pift_assert(p.entries < nil, "taint storage: %zu entries exceed "
                "the slot index", p.entries);
}

TaintStorageState
TaintStorage::exportState() const
{
    TaintStorageState state;
    state.params = params;
    state.clock = clock;
    state.entries.reserve(index.size());
    for (Slot s = lru_oldest; s != nil; s = slots[s].newer)
        state.entries.push_back({slots[s].pid, slots[s].range,
                                 slots[s].last_use});
    for (const auto &[pid, set] : spill_sets)
        state.spills.emplace_back(pid, set.ranges());
    state.saturated.assign(saturated_pids.begin(),
                           saturated_pids.end());
    std::sort(state.saturated.begin(), state.saturated.end());
    return state;
}

void
TaintStorage::restoreState(const TaintStorageState &state)
{
    pift_assert(state.params.entries == params.entries &&
                    state.params.policy == params.policy,
                "taint storage restore: params mismatch");
    pift_assert(state.wellFormed(),
                "taint storage restore: state not well formed");
    dropEntries();
    for (const auto &se : state.entries) {
        slots.emplace_back();
        link(static_cast<Slot>(slots.size() - 1), se.pid, se.range,
             se.last_use);
    }
    spill_sets.clear();
    spill_bytes = 0;
    spill_ranges = 0;
    for (const auto &[pid, ranges] : state.spills) {
        taint::RangeSet &set = spill_sets[pid];
        for (const auto &r : ranges)
            set.insert(r);
        spill_bytes += set.bytes();
        spill_ranges += set.rangeCount();
    }
    saturated_pids.clear();
    saturated_pids.insert(state.saturated.begin(),
                          state.saturated.end());
    clock = state.clock;
}

size_t
TaintStorage::validEntries() const
{
    return index.size();
}

size_t
TaintStorage::spilledRanges() const
{
    return spill_ranges;
}

void
TaintStorage::detachLru(Slot s)
{
    Entry &e = slots[s];
    (e.older == nil ? lru_oldest : slots[e.older].newer) = e.newer;
    (e.newer == nil ? lru_newest : slots[e.newer].older) = e.older;
}

void
TaintStorage::appendLru(Slot s)
{
    slots[s].older = lru_newest;
    slots[s].newer = nil;
    (lru_newest == nil ? lru_oldest : slots[lru_newest].newer) = s;
    lru_newest = s;
}

void
TaintStorage::link(Slot s, ProcId pid, const taint::AddrRange &r,
                   uint64_t stamp)
{
    Entry &e = slots[s];
    e.pid = pid;
    e.range = r;
    e.last_use = stamp;
    appendLru(s);
    index.insert({pid, r.start, s});
    cache_bytes += r.bytes();
}

void
TaintStorage::unlink(Slot s)
{
    Entry &e = slots[s];
    index.erase({e.pid, e.range.start, s});
    cache_bytes -= e.range.bytes();
    detachLru(s);
    e.range = taint::AddrRange(); // a free slot overlaps nothing
    free_slots.push_back(s);
}

void
TaintStorage::touch(Slot s)
{
    if (s != lru_newest) {
        detachLru(s);
        appendLru(s);
    }
    slots[s].last_use = ++clock;
}

void
TaintStorage::reshape(Slot s, const taint::AddrRange &r)
{
    Entry &e = slots[s];
    cache_bytes = cache_bytes - e.range.bytes() + r.bytes();
    if (r.start != e.range.start) {
        auto node = index.extract({e.pid, e.range.start, s});
        node.value().start = r.start;
        index.insert(std::move(node));
    }
    e.range = r;
}

void
TaintStorage::dropEntries()
{
    index.clear();
    slots.clear();
    free_slots.clear();
    lru_oldest = lru_newest = nil;
    cache_bytes = 0;
}

void
TaintStorage::collect(ProcId pid, Addr lo, Addr hi)
{
    hits.clear();
    if (lo > hi)
        return; // an invalid range overlaps nothing
    auto it = index.upper_bound({pid, hi, nil});
    while (it != index.begin()) {
        --it;
        if (it->pid != pid || slots[it->slot].range.end < lo)
            break;
        hits.push_back(it->slot);
    }
    std::sort(hits.begin(), hits.end(), [this](Slot a, Slot b) {
        return slots[a].last_use < slots[b].last_use;
    });
}

template <typename Edit>
bool
TaintStorage::editSpill(taint::RangeSet &set, Edit edit)
{
    spill_bytes -= set.bytes();
    spill_ranges -= set.rangeCount();
    bool changed = edit(set);
    spill_bytes += set.bytes();
    spill_ranges += set.rangeCount();
    return changed;
}

bool
TaintStorage::query(ProcId pid, const taint::AddrRange &r)
{
    ++stat.lookups;
    stel().lookups.inc();

    // In hardware all comparators fire at once; every hitting entry
    // gets its LRU touch, in ascending prior last_use so the new
    // stamps depend on nothing exportState() drops.
    collect(pid, r.start, r.end);
    for (Slot s : hits)
        touch(s);
    if (!hits.empty()) {
        ++stat.lookup_hits;
        stel().hits.inc();
        return true;
    }
    if (params.policy == EvictPolicy::LruSpill) {
        auto it = spill_sets.find(pid);
        if (it != spill_sets.end() && it->second.overlaps(r)) {
            ++stat.lookup_hits;
            ++stat.spill_hits;
            stel().hits.inc();
            stel().spill_hits.inc();
            return true;
        }
    }
    return false;
}

void
TaintStorage::markSaturated(ProcId pid)
{
    ++stat.saturation_events;
    saturated_pids.insert(pid);
}

bool
TaintStorage::saturated(ProcId pid) const
{
    return saturated_pids.count(pid) > 0;
}

void
TaintStorage::clearSaturation()
{
    saturated_pids.clear();
}

TaintStorage::Slot
TaintStorage::allocEntry(ProcId pid, const taint::AddrRange &want,
                         provenance::ProvCause drop_cause)
{
    (void)want;
    (void)drop_cause;
    if (index.size() == params.entries) {
        const Slot victim = lru_oldest;
        const Entry &v = slots[victim];
        switch (params.policy) {
          case EvictPolicy::LruSpill:
            ++stat.evictions;
            stel().evictions.inc();
            editSpill(spill_sets[v.pid], [&](taint::RangeSet &set) {
                return set.insert(v.range);
            });
            // Exact move to secondary storage — informational, no loss.
            PIFT_PROV(recorder_,
                      record(provenance::ProvKind::Spill,
                             provenance::ProvCause::SpillEviction,
                             v.pid, v.range.start, v.range.end));
            break;
          case EvictPolicy::LruDrop:
            ++stat.evictions;
            ++stat.dropped;
            stel().evictions.inc();
            stel().drops.inc();
            // The evicted process silently loses this range.
            markSaturated(v.pid);
            PIFT_PROV(recorder_,
                      record(provenance::ProvKind::StorageLoss,
                             provenance::ProvCause::LruDropEviction,
                             v.pid, v.range.start, v.range.end));
            break;
          case EvictPolicy::DropNew:
            ++stat.dropped;
            stel().drops.inc();
            // The inserting process never gets its range stored.
            markSaturated(pid);
            PIFT_PROV(recorder_,
                      record(provenance::ProvKind::StorageLoss,
                             drop_cause, pid, want.start, want.end));
            return nil;
        }
        unlink(victim);
    }
    if (free_slots.empty()) {
        slots.emplace_back();
        return static_cast<Slot>(slots.size() - 1);
    }
    const Slot s = free_slots.back();
    free_slots.pop_back();
    return s;
}

bool
TaintStorage::insert(ProcId pid, const taint::AddrRange &r)
{
    if (!r.valid())
        return false;
    ++stat.inserts;
    stel().inserts.inc();

    // Absorb every same-process entry that overlaps or touches r.
    // Hardware does this with the same comparator array the lookup
    // uses. One pid's entries are disjoint and never adjacent, so
    // these are all the merged range can reach.
    taint::AddrRange merged = r;
    uint64_t absorbed = 0;
    collect(pid, r.start == 0 ? r.start : r.start - 1,
            r.end == ~Addr(0) ? r.end : r.end + 1);
    for (Slot s : hits) {
        merged.start = std::min(merged.start, slots[s].range.start);
        merged.end = std::max(merged.end, slots[s].range.end);
        absorbed += slots[s].range.bytes();
    }
    Slot slot = nil; // an absorbed entry's slot, reused for merged
    if (!hits.empty()) {
        slot = hits.front();
        for (size_t i = 1; i < hits.size(); ++i)
            unlink(hits[i]);
        if (hits.size() > 1) {
            stat.coalesces += hits.size() - 1;
            stel().coalesces.inc(hits.size() - 1);
        }
    }

    const bool fresh = slot == nil;
    if (fresh) {
        slot = allocEntry(pid, merged,
                          provenance::ProvCause::DropNewRefusal);
        if (slot == nil) {
            // DropNew with a full cache: the taint is lost.
            return false;
        }
    }

    // Re-absorb any spilled overlap: the new cache entry covers those
    // bytes now, so leaving them in secondary storage would make
    // bytes()/rangeCount() double-count and make a re-insert of a
    // spilled range report "new bytes covered". A victim the
    // allocEntry above spilled is no part of it: it was not among the
    // hits, so it neither overlaps nor touches the merged range.
    if (params.policy == EvictPolicy::LruSpill) {
        auto it = spill_sets.find(pid);
        if (it != spill_sets.end()) {
            uint64_t spilled = it->second.bytes();
            if (editSpill(it->second, [&](taint::RangeSet &set) {
                    return set.remove(merged);
                }))
                absorbed += spilled - it->second.bytes();
            if (it->second.empty())
                spill_sets.erase(it);
        }
    }

    if (fresh) {
        link(slot, pid, merged, ++clock);
    } else {
        reshape(slot, merged);
        touch(slot);
    }
    stat.max_entries_used = std::max(stat.max_entries_used,
                                     index.size());
    return merged.bytes() > absorbed;
}

bool
TaintStorage::remove(ProcId pid, const taint::AddrRange &r)
{
    if (!r.valid())
        return false;
    ++stat.removes;
    stel().removes.inc();

    bool changed = false;
    collect(pid, r.start, r.end);
    for (Slot s : hits) {
        // An earlier split's allocation may have evicted this entry
        // and reused its slot for a range right of r.
        const taint::AddrRange cur = slots[s].range;
        if (!cur.overlaps(r))
            continue;
        changed = true;
        bool keep_left = cur.start < r.start;
        bool keep_right = cur.end > r.end;
        if (keep_left && keep_right) {
            // Split: shrink in place to the left part, allocate a new
            // entry for the right part.
            reshape(s, taint::AddrRange(cur.start, r.start - 1));
            taint::AddrRange right(r.end + 1, cur.end);
            const Slot extra = allocEntry(
                pid, right, provenance::ProvCause::SplitAllocFail);
            if (extra != nil) {
                link(extra, pid, right, ++clock);
                stat.max_entries_used = std::max(stat.max_entries_used,
                                                 index.size());
            }
            // extra == nil: the DropNew branch of allocEntry already
            // counted the drop and saturated the splitting process.
        } else if (keep_left) {
            reshape(s, taint::AddrRange(cur.start, r.start - 1));
        } else if (keep_right) {
            reshape(s, taint::AddrRange(r.end + 1, cur.end));
        } else {
            unlink(s);
        }
    }

    if (params.policy == EvictPolicy::LruSpill) {
        auto it = spill_sets.find(pid);
        if (it != spill_sets.end() &&
            editSpill(it->second, [&](taint::RangeSet &set) {
                return set.remove(r);
            }))
            changed = true;
    }
    return changed;
}

void
TaintStorage::clear()
{
    dropEntries();
    spill_sets.clear();
    spill_bytes = 0;
    spill_ranges = 0;
    // A full clear is an exact state: nothing previously lost can
    // matter for future queries.
    saturated_pids.clear();
}

uint64_t
TaintStorage::bytes() const
{
    return cache_bytes + spill_bytes;
}

size_t
TaintStorage::rangeCount() const
{
    return index.size() + spill_ranges;
}

WordTaintStorage::WordTaintStorage(unsigned granularity_log2)
    : gran(granularity_log2)
{
    pift_assert(granularity_log2 < 31, "granularity too coarse");
}

uint64_t
WordTaintStorage::key(ProcId pid, Addr block) const
{
    return (static_cast<uint64_t>(pid) << 32) | block;
}

bool
WordTaintStorage::query(ProcId pid, const taint::AddrRange &r)
{
    if (!r.valid())
        return false;
    Addr first = r.start >> gran;
    Addr last = r.end >> gran;
    for (Addr b = first; b <= last; ++b) {
        if (blocks.count(key(pid, b)))
            return true;
        if (b == last)
            break;
    }
    return false;
}

bool
WordTaintStorage::insert(ProcId pid, const taint::AddrRange &r)
{
    if (!r.valid())
        return false;
    bool changed = false;
    Addr first = r.start >> gran;
    Addr last = r.end >> gran;
    for (Addr b = first; b <= last; ++b) {
        changed |= blocks.insert(key(pid, b)).second;
        if (b == last)
            break;
    }
    return changed;
}

bool
WordTaintStorage::remove(ProcId pid, const taint::AddrRange &r)
{
    if (!r.valid())
        return false;
    // Conservative untainting: only drop blocks fully covered by the
    // removal, so the store stays a strict over-approximation of the
    // exact range set (partial overwrites keep the block tainted —
    // the overtainting cost of fixed granularity, Section 3.3).
    bool changed = false;
    Addr first = r.start >> gran;
    Addr last = r.end >> gran;
    for (Addr b = first; b <= last; ++b) {
        Addr block_start = b << gran;
        Addr block_end = block_start + static_cast<Addr>(blockBytes())
            - 1;
        if (r.start <= block_start && block_end <= r.end)
            changed |= blocks.erase(key(pid, b)) > 0;
        if (b == last)
            break;
    }
    return changed;
}

void
WordTaintStorage::clear()
{
    blocks.clear();
}

uint64_t
WordTaintStorage::bytes() const
{
    return blocks.size() * blockBytes();
}

size_t
WordTaintStorage::rangeCount() const
{
    return blocks.size();
}

} // namespace pift::core
