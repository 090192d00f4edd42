/**
 * @file
 * Unit tests for the persistence layer: wire primitives, snapshot
 * round-trips and corruption detection, WAL framing and torn-tail
 * tolerance, the WAL's frame encoder and commit buffer, the
 * DurableSession cadence/rotation machinery and failure path, and the
 * state export/restore hooks it all rests on.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <random>
#include <sys/resource.h>

#include "core/pift_tracker.hh"
#include "core/taint_storage.hh"
#include "persist/durable.hh"
#include "persist/recovery.hh"
#include "persist/snapshot.hh"
#include "persist/wal.hh"
#include "persist/wire.hh"
#include "sim/trace.hh"
#include "support/logging.hh"
#include "telemetry/registry.hh"

using namespace pift;

namespace
{

sim::TraceRecord
memRec(SeqNum seq, ProcId pid, sim::MemKind kind, Addr start,
       Addr len = 4)
{
    sim::TraceRecord r;
    r.seq = seq;
    r.local_seq = seq;
    r.pid = pid;
    r.op = kind == sim::MemKind::Load ? isa::Op::Ldr : isa::Op::Str;
    r.mem_kind = kind;
    r.mem_start = start;
    r.mem_end = start + len - 1;
    return r;
}

sim::ControlEvent
control(SeqNum seq, sim::ControlKind kind, ProcId pid, Addr start,
        Addr len, uint32_t id)
{
    sim::ControlEvent ev;
    ev.seq = seq;
    ev.kind = kind;
    ev.pid = pid;
    ev.start = start;
    ev.end = start + len - 1;
    ev.id = id;
    return ev;
}

/**
 * A small two-process workload that exercises every journaled
 * transition: sources, tainted loads, in-window taints, out-of-window
 * untaints, spilling pressure (with a small cache), and sink checks.
 */
sim::Trace
workloadTrace()
{
    sim::Trace t;
    SeqNum seq = 0;
    t.controls.push_back(control(0, sim::ControlKind::RegisterSource,
                                 1, 0x1000, 64, 7));
    t.controls.push_back(control(0, sim::ControlKind::RegisterSource,
                                 2, 0x8000, 32, 8));
    for (int rep = 0; rep < 12; ++rep) {
        ProcId pid = (rep % 2) ? 2 : 1;
        Addr base = pid == 1 ? 0x1000 : 0x8000;
        Addr dst = (pid == 1 ? 0x2000 : 0x9000) +
            static_cast<Addr>(rep) * 0x40;
        t.records.push_back(memRec(seq++, pid, sim::MemKind::Load,
                                   base + (rep % 4) * 8));
        t.records.push_back(memRec(seq++, pid, sim::MemKind::Store,
                                   dst));
        t.records.push_back(memRec(seq++, pid, sim::MemKind::Store,
                                   dst + 0x10));
        // A far store that usually lands outside the window budget.
        t.records.push_back(memRec(seq++, pid, sim::MemKind::Store,
                                   dst + 0x400));
        if (rep % 3 == 2) {
            t.controls.push_back(
                control(seq, sim::ControlKind::CheckSink, pid, dst,
                        16, 100 + static_cast<uint32_t>(rep)));
        }
    }
    t.controls.push_back(control(seq, sim::ControlKind::CheckSink, 1,
                                 0x7000, 16, 200));
    return t;
}

core::TaintStorageParams
smallStorage()
{
    core::TaintStorageParams sp;
    sp.entries = 4; // tiny: forces spill traffic in the workload
    sp.policy = core::EvictPolicy::LruSpill;
    return sp;
}

/** Run the workload once and capture full final state. */
persist::SnapshotData
goldenRun(const sim::Trace &trace,
          const core::TaintStorageParams &sp)
{
    core::TaintStorage storage(sp);
    core::PiftTracker tracker(core::PiftParams{}, storage);
    sim::replay(trace, tracker);
    persist::SnapshotData data;
    data.storage = storage.exportState();
    data.tracker = tracker.exportState();
    return data;
}

} // namespace

TEST(Wire, Crc32KnownVector)
{
    // The canonical IEEE CRC-32 check value.
    const char *s = "123456789";
    EXPECT_EQ(persist::crc32(s, 9), 0xcbf43926u);
    // Chaining partial computations matches one-shot.
    uint32_t part = persist::crc32(s, 4);
    EXPECT_EQ(persist::crc32(s + 4, 5, part), 0xcbf43926u);
    EXPECT_EQ(persist::crc32("", 0), 0u);
}

TEST(Wire, WriterReaderRoundTrip)
{
    persist::ByteWriter w;
    w.put8(0xab);
    w.put16(0x1234);
    w.put32(0xdeadbeef);
    w.put64(0x0123456789abcdefull);
    EXPECT_EQ(w.size(), 15u);

    persist::ByteReader r(w.bytes());
    EXPECT_EQ(r.get8(), 0xabu);
    EXPECT_EQ(r.get16(), 0x1234u);
    EXPECT_EQ(r.get32(), 0xdeadbeefu);
    EXPECT_EQ(r.get64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.bytesLeft(), 0u);

    // Reading past the end fails sticky, never crashes.
    EXPECT_EQ(r.get32(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST(Wire, LittleEndianLayout)
{
    persist::ByteWriter w;
    w.put32(0x04030201);
    const std::string &b = w.bytes();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(static_cast<uint8_t>(b[0]), 1);
    EXPECT_EQ(static_cast<uint8_t>(b[3]), 4);
}

TEST(StorageState, ExportRestoreRoundTrip)
{
    auto sp = smallStorage();
    core::TaintStorage a(sp);
    // Build up entries, spill pressure, and a split.
    for (int i = 0; i < 8; ++i)
        a.insert(1, taint::AddrRange(0x1000 + i * 0x100,
                                     0x1000 + i * 0x100 + 0x1f));
    a.insert(2, taint::AddrRange(0x9000, 0x90ff));
    a.remove(2, taint::AddrRange(0x9040, 0x904f)); // split
    a.query(1, taint::AddrRange(0x1000, 0x101f));  // LRU refresh

    auto state = a.exportState();
    core::TaintStorage b(sp);
    b.restoreState(state);
    EXPECT_EQ(b.exportState(), state);
    EXPECT_EQ(b.bytes(), a.bytes());
    EXPECT_EQ(b.rangeCount(), a.rangeCount());

    // The restored instance must behave identically from here on:
    // same eviction victims, same query answers.
    for (int i = 0; i < 6; ++i) {
        taint::AddrRange r(0x4000 + i * 0x80, 0x4000 + i * 0x80 + 7);
        EXPECT_EQ(a.insert(3, r), b.insert(3, r)) << i;
    }
    taint::AddrRange probe(0x1100, 0x110f);
    EXPECT_EQ(a.query(1, probe), b.query(1, probe));
    EXPECT_EQ(a.exportState(), b.exportState());
}

TEST(StorageState, CanonicalOrderIsLastUse)
{
    auto sp = smallStorage();
    core::TaintStorage s(sp);
    s.insert(1, taint::AddrRange(0x100, 0x10f));
    s.insert(2, taint::AddrRange(0x200, 0x20f));
    s.query(1, taint::AddrRange(0x100, 0x100)); // 1 now most recent
    auto state = s.exportState();
    ASSERT_EQ(state.entries.size(), 2u);
    EXPECT_EQ(state.entries[0].pid, 2u);
    EXPECT_EQ(state.entries[1].pid, 1u);
    EXPECT_LT(state.entries[0].last_use, state.entries[1].last_use);
}

TEST(Snapshot, EncodeDecodeRoundTrip)
{
    auto data = goldenRun(workloadTrace(), smallStorage());
    data.epoch = 3;
    std::string bytes = persist::encodeSnapshot(data);
    auto decoded = persist::decodeSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.message();
    EXPECT_EQ(decoded.value().epoch, 3u);
    EXPECT_EQ(decoded.value().storage, data.storage);
    EXPECT_EQ(persist::encodeSnapshot(decoded.value()), bytes);
}

TEST(Snapshot, EveryBitFlipIsDetected)
{
    auto data = goldenRun(workloadTrace(), smallStorage());
    std::string bytes = persist::encodeSnapshot(data);
    for (size_t i = 0; i < bytes.size(); ++i) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(
            static_cast<uint8_t>(mutated[i]) ^
            (1u << (i % 8)));
        auto decoded = persist::decodeSnapshot(mutated);
        EXPECT_FALSE(decoded.ok()) << "flip at byte " << i
                                   << " parsed silently";
    }
}

TEST(Snapshot, EveryTruncationIsDetected)
{
    auto data = goldenRun(workloadTrace(), smallStorage());
    std::string bytes = persist::encodeSnapshot(data);
    for (size_t len = 0; len < bytes.size(); ++len) {
        auto decoded = persist::decodeSnapshot(bytes.substr(0, len));
        EXPECT_FALSE(decoded.ok()) << "truncation at " << len;
    }
}

TEST(Snapshot, MalformedStorageStateIsCorruptionNotACrash)
{
    // A snapshot with a valid CRC whose storage state no storage could
    // have exported — here more entries than the configured capacity
    // — must be rejected by the decoder, so recovery degrades instead
    // of tripping restoreState()'s precondition.
    persist::SnapshotData data;
    data.epoch = 1;
    data.storage.params = smallStorage();
    data.storage.params.entries = 2;
    data.storage.clock = 10;
    for (uint32_t i = 0; i < 3; ++i)
        data.storage.entries.push_back(
            {1, taint::AddrRange(i * 16, i * 16 + 3), uint64_t(i + 1)});
    ASSERT_FALSE(data.storage.wellFormed());
    auto decoded = persist::decodeSnapshot(persist::encodeSnapshot(data));
    EXPECT_FALSE(decoded.ok());

    const std::string dir = ::testing::TempDir() + "pift_malformed_snap";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(persist::writeSnapshotFile(persist::snapshotPath(dir),
                                           data)
                    .ok());
    auto result = persist::recover(dir, smallStorage());
    EXPECT_TRUE(result.corruption_detected);
    std::filesystem::remove_all(dir);
}

TEST(StorageState, WellFormedMatchesWhatExportCanProduce)
{
    core::TaintStorage st(smallStorage());
    st.insert(1, taint::AddrRange(0x100, 0x10f));
    st.insert(1, taint::AddrRange(0x200, 0x20f));
    core::TaintStorageState good = st.exportState();
    ASSERT_TRUE(good.wellFormed());

    auto broken = [&](auto edit) {
        core::TaintStorageState s = good;
        edit(s);
        return !s.wellFormed();
    };
    EXPECT_TRUE(broken([](auto &s) { s.params.entries = 0; }));
    EXPECT_TRUE(broken([](auto &s) { s.params.entries = 1; }));
    EXPECT_TRUE(broken([](auto &s) {
        std::swap(s.entries[0], s.entries[1]); // stamps out of order
    }));
    EXPECT_TRUE(broken([](auto &s) { s.clock = 0; }));
    EXPECT_TRUE(broken([](auto &s) {
        s.entries[1].range = taint::AddrRange(0x110, 0x11f); // touches
    }));
    EXPECT_TRUE(broken([](auto &s) {
        s.entries[1].range = taint::AddrRange(0x20f, 0x200); // invalid
    }));
    // Without coalescing, one pid's entries may overlap.
    EXPECT_FALSE(broken([](auto &s) {
        s.params.coalesce = false;
        s.entries[1].range = s.entries[0].range;
    }));
}

TEST(Snapshot, AtomicWriteLeavesNoTmp)
{
    std::string path = ::testing::TempDir() + "/pift_snap_test.pift";
    persist::SnapshotData data;
    data.storage.params = smallStorage();
    ASSERT_TRUE(persist::writeSnapshotFile(path, data).ok());
    auto back = persist::readSnapshotFile(path);
    ASSERT_TRUE(back.ok()) << back.message();

    std::string tmp;
    EXPECT_FALSE(persist::readFileBytes(path + ".tmp", tmp).ok());
    std::remove(path.c_str());
}

TEST(Wal, RecordCodecRoundTrip)
{
    core::JournalRecord rec;
    rec.kind = core::JournalKind::SinkCheck;
    rec.verdict = core::SinkVerdict::MaybeTainted;
    rec.pid = 42;
    rec.start = 0x1000;
    rec.end = 0x10ff;
    rec.id = 9;
    rec.ltlt = 123456789;
    rec.used = 2;
    rec.records_seen = 777;
    rec.controls_seen = 13;

    uint8_t frame[persist::wal_frame_bytes];
    persist::encodeWalFrame(rec, frame);
    std::string payload(reinterpret_cast<const char *>(frame) + 8,
                        persist::wal_payload_bytes);
    auto back = persist::decodeJournalRecord(payload);
    ASSERT_TRUE(back.ok()) << back.message();
    const auto &b = back.value();
    EXPECT_EQ(b.kind, rec.kind);
    EXPECT_EQ(b.verdict, rec.verdict);
    EXPECT_EQ(b.pid, rec.pid);
    EXPECT_EQ(b.start, rec.start);
    EXPECT_EQ(b.end, rec.end);
    EXPECT_EQ(b.id, rec.id);
    EXPECT_EQ(b.ltlt, rec.ltlt);
    EXPECT_EQ(b.used, rec.used);
    EXPECT_EQ(b.records_seen, rec.records_seen);
    EXPECT_EQ(b.controls_seen, rec.controls_seen);
}

TEST(Wal, WriteReadRoundTrip)
{
    std::string path = ::testing::TempDir() + "/pift_wal_test.pift";
    persist::WalWriter w;
    ASSERT_TRUE(w.open(path, 5, /*flush_each=*/false).ok());
    for (uint32_t i = 0; i < 20; ++i) {
        core::JournalRecord rec;
        rec.kind = static_cast<core::JournalKind>(
            i % core::journal_kind_count);
        rec.pid = i;
        rec.records_seen = i * 3;
        rec.controls_seen = i;
        ASSERT_TRUE(w.append(rec).ok());
    }
    ASSERT_TRUE(w.close().ok());
    EXPECT_TRUE(w.healthy());

    auto report = persist::readWalFile(path);
    ASSERT_TRUE(report.ok()) << report.message();
    const auto &r = report.value();
    EXPECT_TRUE(r.header_ok);
    EXPECT_FALSE(r.torn);
    EXPECT_EQ(r.epoch, 5u);
    ASSERT_EQ(r.records.size(), 20u);
    for (uint32_t i = 0; i < 20; ++i) {
        EXPECT_EQ(r.records[i].pid, i);
        EXPECT_EQ(r.records[i].records_seen, i * 3);
    }
    std::remove(path.c_str());
}

TEST(Wal, FrameEncoderMatchesByteWriterReference)
{
    // The version-1 frame, built field by field with ByteWriter: the
    // encoding the fixed-size encoder must reproduce byte for byte.
    auto reference = [](const core::JournalRecord &rec) {
        persist::ByteWriter payload;
        payload.put8(static_cast<uint8_t>(rec.kind));
        payload.put8(static_cast<uint8_t>(rec.verdict));
        payload.put32(rec.pid);
        payload.put32(rec.start);
        payload.put32(rec.end);
        payload.put32(rec.id);
        payload.put64(rec.ltlt);
        payload.put32(rec.used);
        payload.put64(rec.records_seen);
        payload.put64(rec.controls_seen);
        persist::ByteWriter frame;
        frame.put32(static_cast<uint32_t>(payload.size()));
        frame.put32(persist::crc32(payload.bytes().data(),
                                   payload.size()));
        return frame.bytes() + payload.bytes();
    };

    // Every kind and verdict at zero, all-ones and a mixed pattern,
    // then seeded random records, enough to pass the commit cap.
    std::vector<core::JournalRecord> recs;
    for (uint64_t pattern :
         {0ull, ~0ull, 0x0123456789abcdefull, 0x8000000000000001ull})
        for (unsigned k = 0; k < core::journal_kind_count; ++k)
            for (unsigned v = 0; v < 3; ++v) {
                core::JournalRecord rec;
                rec.kind = static_cast<core::JournalKind>(k);
                rec.verdict = static_cast<core::SinkVerdict>(v);
                rec.pid = static_cast<uint32_t>(pattern);
                rec.start = static_cast<uint32_t>(pattern >> 8);
                rec.end = static_cast<uint32_t>(pattern >> 32);
                rec.id = static_cast<uint32_t>(pattern >> 16);
                rec.ltlt = pattern;
                rec.used = static_cast<uint32_t>(pattern >> 24);
                rec.records_seen = ~pattern;
                rec.controls_seen = pattern ^ 0xffffull;
                recs.push_back(rec);
            }
    std::mt19937_64 rng(7);
    while (recs.size() <
           3 * persist::wal_commit_bytes / persist::wal_frame_bytes) {
        core::JournalRecord rec;
        rec.kind = static_cast<core::JournalKind>(
            rng() % core::journal_kind_count);
        rec.verdict = static_cast<core::SinkVerdict>(rng() % 3);
        rec.pid = static_cast<uint32_t>(rng());
        rec.start = static_cast<uint32_t>(rng());
        rec.end = static_cast<uint32_t>(rng());
        rec.id = static_cast<uint32_t>(rng());
        rec.ltlt = rng();
        rec.used = static_cast<uint32_t>(rng());
        rec.records_seen = rng();
        rec.controls_seen = rng();
        recs.push_back(rec);
    }

    std::string frames;
    for (const auto &rec : recs) {
        const std::string want = reference(rec);
        ASSERT_EQ(want.size(), persist::wal_frame_bytes);
        uint8_t got[persist::wal_frame_bytes];
        persist::encodeWalFrame(rec, got);
        EXPECT_EQ(std::string(reinterpret_cast<const char *>(got),
                              sizeof(got)),
                  want);
        frames += want;
    }

    // The writer's file is the header followed by exactly those
    // frames, buffered or flushed per record.
    persist::ByteWriter hdr;
    hdr.put32(persist::wal_magic);
    hdr.put16(persist::wal_version);
    hdr.put16(0);
    hdr.put64(11);
    hdr.put32(persist::crc32(hdr.bytes().data(), hdr.size()));
    const std::string path =
        ::testing::TempDir() + "/pift_wal_encoder.pift";
    for (bool flush_each : {false, true}) {
        persist::WalWriter w;
        ASSERT_TRUE(w.open(path, 11, flush_each).ok());
        for (const auto &rec : recs)
            ASSERT_TRUE(w.append(rec).ok());
        ASSERT_TRUE(w.close().ok());
        std::string bytes;
        ASSERT_TRUE(persist::readFileBytes(path, bytes).ok());
        EXPECT_TRUE(bytes == hdr.bytes() + frames)
            << "flush_each " << flush_each << ": " << bytes.size()
            << " bytes";
    }
    std::remove(path.c_str());
}

TEST(Wal, TornTailAtEveryByteKeepsValidPrefix)
{
    // Build a WAL of 5 records in memory, then truncate it at every
    // possible length: the reader must accept exactly the records
    // whose frames are complete and flag everything else as torn —
    // never reject a valid prefix, never accept a partial frame.
    std::string path = ::testing::TempDir() + "/pift_wal_torn.pift";
    persist::WalWriter w;
    ASSERT_TRUE(w.open(path, 1, false).ok());
    for (uint32_t i = 0; i < 5; ++i) {
        core::JournalRecord rec;
        rec.kind = core::JournalKind::StoreTaint;
        rec.pid = i + 1;
        ASSERT_TRUE(w.append(rec).ok());
    }
    ASSERT_TRUE(w.close().ok());
    std::string bytes;
    ASSERT_TRUE(persist::readFileBytes(path, bytes).ok());
    std::remove(path.c_str());
    ASSERT_EQ(bytes.size(), persist::wal_header_bytes +
                  5 * persist::wal_frame_bytes);

    for (size_t len = 0; len <= bytes.size(); ++len) {
        auto report = persist::readWalBytes(bytes.substr(0, len));
        if (len < persist::wal_header_bytes) {
            EXPECT_FALSE(report.header_ok) << len;
            EXPECT_TRUE(report.torn) << len;
            continue;
        }
        EXPECT_TRUE(report.header_ok) << len;
        size_t whole =
            (len - persist::wal_header_bytes) / persist::wal_frame_bytes;
        EXPECT_EQ(report.records.size(), whole) << len;
        bool exact = len == persist::wal_header_bytes +
            whole * persist::wal_frame_bytes;
        EXPECT_EQ(report.torn, !exact) << len;
        for (size_t i = 0; i < report.records.size(); ++i)
            EXPECT_EQ(report.records[i].pid, i + 1);
    }
}

TEST(Wal, BitFlipTruncatesAtCorruptRecord)
{
    std::string path = ::testing::TempDir() + "/pift_wal_flip.pift";
    persist::WalWriter w;
    ASSERT_TRUE(w.open(path, 1, false).ok());
    for (uint32_t i = 0; i < 4; ++i) {
        core::JournalRecord rec;
        rec.pid = i + 1;
        ASSERT_TRUE(w.append(rec).ok());
    }
    ASSERT_TRUE(w.close().ok());
    std::string bytes;
    ASSERT_TRUE(persist::readFileBytes(path, bytes).ok());
    std::remove(path.c_str());

    // Flip one payload bit of record 2 (0-based): records 0-1 must
    // survive, the rest must be rejected.
    size_t off = persist::wal_header_bytes +
        2 * persist::wal_frame_bytes + 8 + 3;
    bytes[off] = static_cast<char>(
        static_cast<uint8_t>(bytes[off]) ^ 0x10);
    auto report = persist::readWalBytes(bytes);
    EXPECT_TRUE(report.header_ok);
    EXPECT_TRUE(report.torn);
    ASSERT_EQ(report.records.size(), 2u);
    EXPECT_EQ(report.records[0].pid, 1u);
    EXPECT_EQ(report.records[1].pid, 2u);

    // A header flip invalidates the whole log.
    bytes[10] = static_cast<char>(
        static_cast<uint8_t>(bytes[10]) ^ 0x01);
    auto hdr = persist::readWalBytes(bytes);
    EXPECT_FALSE(hdr.header_ok);
    EXPECT_TRUE(hdr.records.empty());
}

TEST(ReplayFrom, ZeroCursorEqualsReplay)
{
    sim::Trace trace = workloadTrace();
    sim::TraceBuffer a, b;
    sim::replay(trace, a);
    sim::replayFrom(trace, b, 0, 0);
    EXPECT_EQ(a.trace().records.size(), b.trace().records.size());
    EXPECT_EQ(a.trace().controls.size(), b.trace().controls.size());
}

TEST(ReplayFrom, SuffixDeliversExactlyTheRemainder)
{
    sim::Trace trace = workloadTrace();
    // For every possible cursor reachable by a prefix of the merged
    // stream, prefix + suffix must reproduce the full delivery.
    sim::TraceBuffer full;
    sim::replay(trace, full);
    const size_t nr = trace.records.size();
    for (size_t records_done = 0; records_done <= nr;
         records_done += 7) {
        // controls delivered before record index records_done:
        size_t controls_done = 0;
        while (controls_done < trace.controls.size() &&
               trace.controls[controls_done].seq <
                   records_done + (records_done < nr ? 1 : 0))
            ++controls_done;
        // (controls with seq <= ri are delivered before record ri,
        // so after consuming records [0, records_done) every control
        // with seq < records_done+1 is out — unless the stream ended.)
        sim::TraceBuffer tail;
        sim::replayFrom(trace, tail, records_done, controls_done);
        EXPECT_EQ(tail.trace().records.size(), nr - records_done);
        EXPECT_EQ(tail.trace().controls.size(),
                  trace.controls.size() - controls_done);
    }
}

TEST(Durable, JournalMatchesLiveRun)
{
    std::string dir = ::testing::TempDir() + "/pift_durable_live";
    sim::Trace trace = workloadTrace();
    auto sp = smallStorage();

    core::TaintStorage storage(sp);
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(
        storage, tracker, {dir, /*snapshot_every=*/0, true});
    ASSERT_TRUE(session.start().ok());
    tracker.setJournal(&session);
    sim::replay(trace, tracker);
    ASSERT_TRUE(session.close().ok());
    EXPECT_TRUE(session.healthy());
    EXPECT_GT(session.recordsLogged(), 0u);

    // Recovery from WAL-only (implicit epoch-0 snapshot) must land on
    // the live run's exact storage state, sinks, and cursor.
    auto rec = persist::recover(dir, sp);
    EXPECT_FALSE(rec.corruption_detected) << rec.detail;
    EXPECT_EQ(rec.wal_applied, session.recordsLogged());
    EXPECT_EQ(rec.state.storage, storage.exportState());
    auto live = tracker.exportState();
    EXPECT_EQ(rec.state.tracker.records_seen, live.records_seen);
    EXPECT_EQ(rec.state.tracker.controls_seen, live.controls_seen);
    ASSERT_EQ(rec.state.tracker.sinks.size(), live.sinks.size());
    for (size_t i = 0; i < live.sinks.size(); ++i) {
        EXPECT_EQ(rec.state.tracker.sinks[i].verdict,
                  live.sinks[i].verdict) << i;
        EXPECT_EQ(rec.state.tracker.sinks[i].sink_id,
                  live.sinks[i].sink_id) << i;
    }
}

TEST(Durable, CommitBufferNeverPassesItsCap)
{
    // Without flush_each and without a snapshot cadence nobody
    // flushes the session, yet the bytes not yet in the file never
    // exceed wal_commit_bytes: the WAL commits on its own when full.
    std::string dir = ::testing::TempDir() + "/pift_durable_cap";
    std::filesystem::remove_all(dir);
    core::TaintStorage storage(smallStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(storage, tracker, {dir, 0, false});
    ASSERT_TRUE(session.start().ok());
    const std::string wal = persist::walPath(dir);

    const uint64_t n =
        3 * persist::wal_commit_bytes / persist::wal_frame_bytes;
    uint64_t most = 0, commits = 0;
    uint64_t on_disk = persist::wal_header_bytes;
    for (uint64_t i = 0; i < n; ++i) {
        core::JournalRecord rec;
        rec.kind = core::JournalKind::StoreTaint;
        rec.pid = 1;
        rec.records_seen = i;
        session.append(rec);
        const uint64_t size = std::filesystem::file_size(wal);
        const uint64_t logged = persist::wal_header_bytes +
            (i + 1) * persist::wal_frame_bytes;
        ASSERT_LE(size, logged);
        EXPECT_LE(logged - size, persist::wal_commit_bytes) << i;
        most = std::max(most, logged - size);
        if (size != on_disk)
            ++commits;
        on_disk = size;
    }
    EXPECT_TRUE(session.healthy());
    EXPECT_GT(most, persist::wal_commit_bytes - persist::wal_frame_bytes);
    EXPECT_GE(commits, 2u);
    ASSERT_TRUE(session.close().ok());
    EXPECT_EQ(std::filesystem::file_size(wal),
              persist::wal_header_bytes + n * persist::wal_frame_bytes);
    std::filesystem::remove_all(dir);
}

TEST(Durable, FailedCloseIsStickyCountedAndWarned)
{
    // A close() that cannot commit the buffered tail takes the same
    // path as a failed append: healthy() turns false for good, one
    // persist.io_failures_total, one (rate-limited) warning. The
    // failure is made in this process by capping its file size at
    // the WAL's header, with SIGXFSZ ignored (the write gets EFBIG).
    std::string dir = ::testing::TempDir() + "/pift_durable_failclose";
    std::filesystem::remove_all(dir);
    core::TaintStorage storage(smallStorage());
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(storage, tracker, {dir, 0, false});
    ASSERT_TRUE(session.start().ok());
    for (uint32_t i = 0; i < 10; ++i) {
        core::JournalRecord rec;
        rec.pid = i + 1;
        session.append(rec);
    }
    ASSERT_TRUE(session.healthy());

    auto &failures = telemetry::counter("persist.io_failures_total");
    const uint64_t failures_before = failures.value();
    const uint64_t warns_before = warnCount();
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved;
    capped.rlim_cur = persist::wal_header_bytes;
    const bool limited = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
    Status closed = limited ? session.close() : Status();
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, saved_handler);
    ASSERT_TRUE(limited);

    EXPECT_FALSE(closed.ok());
    EXPECT_FALSE(session.healthy());
    EXPECT_EQ(warnCount(), warns_before + 1);
    if (telemetry::compiledIn()) {
        EXPECT_EQ(failures.value(), failures_before + 1);
    }
    // Sticky: nothing later retries or counts again.
    core::JournalRecord rec;
    session.append(rec);
    EXPECT_TRUE(session.flush().ok());
    EXPECT_TRUE(session.close().ok());
    EXPECT_FALSE(session.healthy());
    if (telemetry::compiledIn()) {
        EXPECT_EQ(failures.value(), failures_before + 1);
    }
    EXPECT_EQ(std::filesystem::file_size(persist::walPath(dir)),
              persist::wal_header_bytes);
    std::filesystem::remove_all(dir);
}

TEST(Durable, CadenceSnapshotsAndRotation)
{
    std::string dir = ::testing::TempDir() + "/pift_durable_cadence";
    sim::Trace trace = workloadTrace();
    auto sp = smallStorage();

    core::TaintStorage storage(sp);
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(storage, tracker,
                                    {dir, /*snapshot_every=*/10, true});
    ASSERT_TRUE(session.start().ok());
    tracker.setJournal(&session);
    sim::replay(trace, tracker);
    ASSERT_TRUE(session.close().ok());
    EXPECT_TRUE(session.healthy());
    EXPECT_GT(session.snapshotsTaken(), 1u);
    EXPECT_EQ(session.epoch(), session.snapshotsTaken());

    // Snapshot on disk is at the session's epoch; WAL was rotated to
    // match; recovery still reproduces the live state exactly.
    auto snap = persist::readSnapshotFile(persist::snapshotPath(dir));
    ASSERT_TRUE(snap.ok()) << snap.message();
    EXPECT_EQ(snap.value().epoch, session.epoch());
    auto wal = persist::readWalFile(persist::walPath(dir));
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value().epoch, session.epoch());

    auto rec = persist::recover(dir, sp);
    EXPECT_FALSE(rec.corruption_detected) << rec.detail;
    EXPECT_EQ(rec.state.storage, storage.exportState());
    EXPECT_EQ(rec.state.tracker.records_seen,
              tracker.exportState().records_seen);
}

TEST(Durable, OnDemandSnapshotThenRestore)
{
    std::string dir = ::testing::TempDir() + "/pift_durable_demand";
    sim::Trace trace = workloadTrace();
    auto sp = smallStorage();

    core::TaintStorage storage(sp);
    core::PiftTracker tracker(core::PiftParams{}, storage);
    persist::DurableSession session(storage, tracker, {dir, 0, true});
    ASSERT_TRUE(session.start().ok());
    tracker.setJournal(&session);
    sim::replay(trace, tracker);
    ASSERT_TRUE(session.snapshotNow().ok());
    ASSERT_TRUE(session.close().ok());

    // Restore into fresh objects and compare against the originals.
    auto rec = persist::recover(dir, sp);
    ASSERT_FALSE(rec.corruption_detected) << rec.detail;
    core::TaintStorage storage2(sp);
    core::PiftTracker tracker2(core::PiftParams{}, storage2);
    persist::restoreInto(rec, storage2, tracker2);
    EXPECT_EQ(storage2.exportState(), storage.exportState());
    EXPECT_EQ(tracker2.sinkResults().size(),
              tracker.sinkResults().size());
    EXPECT_EQ(tracker2.controlsSeen(), tracker.controlsSeen());
}
