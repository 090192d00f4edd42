#include "persist/wal.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "persist/wire.hh"

namespace pift::persist
{

namespace
{

// Little-endian stores at a cursor, the ByteWriter layout without a
// growable buffer behind it.
uint8_t *
le8(uint8_t *p, uint8_t v)
{
    *p = v;
    return p + 1;
}

uint8_t *
le32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
    return p + 4;
}

uint8_t *
le64(uint8_t *p, uint64_t v)
{
    return le32(le32(p, static_cast<uint32_t>(v)),
                static_cast<uint32_t>(v >> 32));
}

} // anonymous namespace

void
encodeWalFrame(const core::JournalRecord &rec, uint8_t *out)
{
    uint8_t *payload = out + 8;
    uint8_t *p = le8(payload, static_cast<uint8_t>(rec.kind));
    p = le8(p, static_cast<uint8_t>(rec.verdict));
    p = le32(p, rec.pid);
    p = le32(p, rec.start);
    p = le32(p, rec.end);
    p = le32(p, rec.id);
    p = le64(p, rec.ltlt);
    p = le32(p, rec.used);
    p = le64(p, rec.records_seen);
    le64(p, rec.controls_seen);
    le32(le32(out, static_cast<uint32_t>(wal_payload_bytes)),
         crc32(payload, wal_payload_bytes));
}

Expected<core::JournalRecord>
decodeJournalRecord(const std::string &payload)
{
    ByteReader r(payload);
    core::JournalRecord rec;
    uint8_t kind = r.get8();
    if (kind >= core::journal_kind_count)
        return Status::error("wal: bad record kind");
    rec.kind = static_cast<core::JournalKind>(kind);
    uint8_t verdict = r.get8();
    if (verdict > static_cast<uint8_t>(core::SinkVerdict::MaybeTainted))
        return Status::error("wal: bad record verdict");
    rec.verdict = static_cast<core::SinkVerdict>(verdict);
    rec.pid = r.get32();
    rec.start = r.get32();
    rec.end = r.get32();
    rec.id = r.get32();
    rec.ltlt = r.get64();
    rec.used = r.get32();
    rec.records_seen = r.get64();
    rec.controls_seen = r.get64();
    if (!r.ok() || r.bytesLeft() != 0)
        return Status::error("wal: record payload size mismatch");
    return rec;
}

WalWriter::~WalWriter()
{
    close();
}

Status
WalWriter::fail(const std::string &why)
{
    const int err = errno;
    broken = true;
    buf.clear();
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    return Status::error("wal " + path_ + ": " + why + ": " +
                         std::strerror(err));
}

bool
WalWriter::writeAll(const char *data, size_t len)
{
    while (len) {
        ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

Status
WalWriter::open(const std::string &path, uint64_t epoch,
                bool flush_each_)
{
    if (Status s = close(); !s.ok())
        return s;
    path_ = path;
    flush_each = flush_each_;
    broken = false;
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                0666);
    if (fd < 0)
        return fail("cannot create");

    ByteWriter w;
    w.put32(wal_magic);
    w.put16(wal_version);
    w.put16(0); // reserved
    w.put64(epoch);
    w.put32(crc32(w.bytes().data(), w.size()));
    const std::string &hdr = w.bytes();
    if (!writeAll(hdr.data(), hdr.size()))
        return fail("header write failed");
    return Status();
}

Status
WalWriter::append(const core::JournalRecord &rec)
{
    if (broken)
        return Status::error("wal " + path_ + ": writer is broken");
    if (fd < 0)
        return Status::error("wal: append before open");

    if (buf.size() + wal_frame_bytes > wal_commit_bytes)
        if (Status s = flush(); !s.ok())
            return s;
    // Grow by doubling up to the cap, never past it: a writer holds at
    // most wal_commit_bytes however large its batches get.
    if (buf.size() + wal_frame_bytes > buf.capacity())
        buf.reserve(std::min(wal_commit_bytes,
                             std::max<size_t>(4096, 2 * buf.capacity())));
    uint8_t frame[wal_frame_bytes];
    encodeWalFrame(rec, frame);
    buf.append(reinterpret_cast<const char *>(frame), wal_frame_bytes);
    return flush_each ? flush() : Status();
}

Status
WalWriter::flush()
{
    if (broken || fd < 0 || buf.empty())
        return Status();
    if (!writeAll(buf.data(), buf.size()))
        return fail("commit failed");
    buf.clear();
    return Status();
}

Status
WalWriter::close()
{
    if (fd < 0)
        return Status();
    if (Status s = flush(); !s.ok())
        return s;
    const int rc = ::close(fd);
    const int err = errno;
    fd = -1;
    if (rc != 0) {
        broken = true;
        return Status::error("wal " + path_ + ": close failed: " +
                             std::strerror(err));
    }
    return Status();
}

WalReadReport
readWalBytes(const std::string &bytes)
{
    WalReadReport report;
    if (bytes.size() < wal_header_bytes) {
        report.torn = true;
        report.detail = "header truncated";
        return report;
    }
    ByteReader hdr(bytes.data(), wal_header_bytes);
    uint32_t magic = hdr.get32();
    uint16_t version = hdr.get16();
    hdr.get16(); // reserved
    uint64_t epoch = hdr.get64();
    uint32_t hdr_crc = hdr.get32();
    if (magic != wal_magic) {
        report.torn = true;
        report.detail = "bad magic";
        return report;
    }
    if (hdr_crc != crc32(bytes.data(), wal_header_bytes - 4)) {
        report.torn = true;
        report.detail = "header CRC mismatch";
        return report;
    }
    if (version != wal_version) {
        report.torn = true;
        report.detail = "unsupported version " +
            std::to_string(version);
        return report;
    }
    report.header_ok = true;
    report.epoch = epoch;
    report.bytes_accepted = wal_header_bytes;

    size_t off = wal_header_bytes;
    while (off < bytes.size()) {
        if (bytes.size() - off < 8) {
            report.torn = true;
            report.detail = "torn frame header";
            return report;
        }
        ByteReader frame(bytes.data() + off, 8);
        uint32_t len = frame.get32();
        uint32_t want_crc = frame.get32();
        // A frame claiming more payload than any version writes is
        // corruption, not a large record.
        if (len != wal_payload_bytes) {
            report.torn = true;
            report.detail = "bad frame length " + std::to_string(len);
            return report;
        }
        if (bytes.size() - off - 8 < len) {
            report.torn = true;
            report.detail = "torn frame payload";
            return report;
        }
        std::string payload(bytes.data() + off + 8, len);
        if (want_crc != crc32(payload.data(), payload.size())) {
            report.torn = true;
            report.detail = "frame CRC mismatch";
            return report;
        }
        auto rec = decodeJournalRecord(payload);
        if (!rec.ok()) {
            report.torn = true;
            report.detail = rec.message();
            return report;
        }
        report.records.push_back(rec.value());
        off += 8 + len;
        report.bytes_accepted = off;
    }
    return report;
}

Expected<WalReadReport>
readWalFile(const std::string &path)
{
    std::string bytes;
    if (Status s = readFileBytes(path, bytes); !s.ok())
        return s;
    return readWalBytes(bytes);
}

} // namespace pift::persist
