#include "persist/snapshot.hh"

#include "persist/wire.hh"

namespace pift::persist
{

namespace
{

void
encodeStorage(ByteWriter &w, const core::TaintStorageState &s)
{
    w.put64(s.params.entries);
    w.put8(static_cast<uint8_t>(s.params.policy));
    w.put8(s.params.coalesce ? 1 : 0);
    w.put64(s.clock);
    w.put64(s.entries.size());
    for (const auto &e : s.entries) {
        w.put32(e.pid);
        w.put32(e.range.start);
        w.put32(e.range.end);
        w.put64(e.last_use);
    }
    w.put64(s.spills.size());
    for (const auto &[pid, ranges] : s.spills) {
        w.put32(pid);
        w.put64(ranges.size());
        for (const auto &r : ranges) {
            w.put32(r.start);
            w.put32(r.end);
        }
    }
    w.put64(s.saturated.size());
    for (ProcId pid : s.saturated)
        w.put32(pid);
}

void
encodeTracker(ByteWriter &w, const core::TrackerState &t)
{
    w.put8(t.global_loss ? 1 : 0);
    w.put64(t.windows.size());
    for (const auto &win : t.windows) {
        w.put32(win.pid);
        w.put8(win.active ? 1 : 0);
        w.put64(win.ltlt);
        w.put32(win.used);
    }
    w.put64(t.lossy.size());
    for (ProcId pid : t.lossy)
        w.put32(pid);
    w.put64(t.sinks.size());
    for (const auto &s : t.sinks) {
        w.put32(s.sink_id);
        w.put32(s.pid);
        w.put32(s.range.start);
        w.put32(s.range.end);
        w.put8(s.tainted ? 1 : 0);
        w.put8(static_cast<uint8_t>(s.verdict));
        w.put64(s.at_records);
    }
    w.put64(t.records_seen);
    w.put64(t.controls_seen);
}

/** Reject counts a valid file could not physically contain. */
bool
countSane(uint64_t count, size_t per_item, const ByteReader &r)
{
    return per_item != 0 && count <= r.bytesLeft() / per_item;
}

Status
decodeStorage(ByteReader &r, core::TaintStorageState &s)
{
    s.params.entries = r.get64();
    uint8_t policy = r.get8();
    if (policy > static_cast<uint8_t>(core::EvictPolicy::DropNew))
        return Status::error("snapshot: bad eviction policy");
    s.params.policy = static_cast<core::EvictPolicy>(policy);
    s.params.coalesce = r.get8() != 0;
    s.clock = r.get64();

    uint64_t nentries = r.get64();
    if (!countSane(nentries, 20, r))
        return Status::error("snapshot: entry count exceeds payload");
    s.entries.resize(nentries);
    for (auto &e : s.entries) {
        e.pid = r.get32();
        e.range.start = r.get32();
        e.range.end = r.get32();
        e.last_use = r.get64();
    }

    uint64_t nspills = r.get64();
    if (!countSane(nspills, 12, r))
        return Status::error("snapshot: spill count exceeds payload");
    s.spills.resize(nspills);
    for (auto &[pid, ranges] : s.spills) {
        pid = r.get32();
        uint64_t nranges = r.get64();
        if (!countSane(nranges, 8, r))
            return Status::error(
                "snapshot: spill range count exceeds payload");
        ranges.resize(nranges);
        for (auto &rg : ranges) {
            rg.start = r.get32();
            rg.end = r.get32();
        }
    }

    uint64_t nsat = r.get64();
    if (!countSane(nsat, 4, r))
        return Status::error(
            "snapshot: saturated count exceeds payload");
    s.saturated.resize(nsat);
    for (auto &pid : s.saturated)
        pid = r.get32();
    // A state restore would refuse is corruption, not a crash.
    if (r.ok() && !s.wellFormed())
        return Status::error("snapshot: storage state not well formed");
    return Status();
}

Status
decodeTracker(ByteReader &r, core::TrackerState &t)
{
    t.global_loss = r.get8() != 0;

    uint64_t nwindows = r.get64();
    if (!countSane(nwindows, 17, r))
        return Status::error("snapshot: window count exceeds payload");
    t.windows.resize(nwindows);
    for (auto &win : t.windows) {
        win.pid = r.get32();
        win.active = r.get8() != 0;
        win.ltlt = r.get64();
        win.used = r.get32();
    }

    uint64_t nlossy = r.get64();
    if (!countSane(nlossy, 4, r))
        return Status::error("snapshot: lossy count exceeds payload");
    t.lossy.resize(nlossy);
    for (auto &pid : t.lossy)
        pid = r.get32();

    uint64_t nsinks = r.get64();
    if (!countSane(nsinks, 26, r))
        return Status::error("snapshot: sink count exceeds payload");
    t.sinks.resize(nsinks);
    for (auto &s : t.sinks) {
        s.sink_id = r.get32();
        s.pid = r.get32();
        s.range.start = r.get32();
        s.range.end = r.get32();
        s.tainted = r.get8() != 0;
        uint8_t verdict = r.get8();
        if (verdict >
            static_cast<uint8_t>(core::SinkVerdict::MaybeTainted))
            return Status::error("snapshot: bad sink verdict");
        s.verdict = static_cast<core::SinkVerdict>(verdict);
        s.at_records = r.get64();
    }

    t.records_seen = r.get64();
    t.controls_seen = r.get64();
    return Status();
}

} // anonymous namespace

std::string
encodeSnapshot(const SnapshotData &data)
{
    ByteWriter w;
    w.put32(snapshot_magic);
    w.put16(snapshot_version);
    w.put16(0); // reserved
    w.put64(data.epoch);
    encodeStorage(w, data.storage);
    encodeTracker(w, data.tracker);
    std::string bytes = w.takeBytes();
    uint32_t crc = crc32(bytes.data(), bytes.size());
    ByteWriter trailer;
    trailer.put32(crc);
    return bytes + trailer.bytes();
}

Expected<SnapshotData>
decodeSnapshot(const std::string &bytes)
{
    if (bytes.size() < 20)
        return Status::error("snapshot: file shorter than header");
    // CRC covers everything before the 4-byte trailer.
    const size_t body = bytes.size() - 4;
    ByteReader tail(bytes.data() + body, 4);
    if (tail.get32() != crc32(bytes.data(), body))
        return Status::error("snapshot: CRC mismatch");

    ByteReader r(bytes.data(), body);
    if (r.get32() != snapshot_magic)
        return Status::error("snapshot: bad magic");
    uint16_t version = r.get16();
    if (version != snapshot_version)
        return Status::error("snapshot: unsupported version " +
                             std::to_string(version));
    r.get16(); // reserved

    SnapshotData data;
    data.epoch = r.get64();
    if (Status s = decodeStorage(r, data.storage); !s.ok())
        return s;
    if (Status s = decodeTracker(r, data.tracker); !s.ok())
        return s;
    if (!r.ok())
        return Status::error("snapshot: truncated payload");
    if (r.bytesLeft() != 0)
        return Status::error("snapshot: trailing bytes after payload");
    return data;
}

Status
writeSnapshotFile(const std::string &path, const SnapshotData &data)
{
    return writeFileAtomic(path, encodeSnapshot(data));
}

Expected<SnapshotData>
readSnapshotFile(const std::string &path)
{
    std::string bytes;
    if (Status s = readFileBytes(path, bytes); !s.ok())
        return s;
    return decodeSnapshot(bytes);
}

} // namespace pift::persist
