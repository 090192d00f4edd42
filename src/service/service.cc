#include "service/service.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "exec/thread_pool.hh"
#include "support/logging.hh"
#include "telemetry/registry.hh"

namespace pift::service
{

namespace
{

/** Service-wide instruments, resolved once (DESIGN.md §9). */
struct ServiceTel
{
    telemetry::Counter &submitted =
        telemetry::counter("service.events.submitted");
    telemetry::Counter &accepted =
        telemetry::counter("service.events.accepted");
    telemetry::Counter &overflowed =
        telemetry::counter("service.events.overflowed");
    telemetry::Counter &drained =
        telemetry::counter("service.events.drained");
    telemetry::Counter &loss_marks =
        telemetry::counter("service.loss_marks");
    telemetry::Counter &attached =
        telemetry::counter("service.sessions.attached");
    telemetry::Counter &detached =
        telemetry::counter("service.sessions.detached");
    telemetry::Counter &expired =
        telemetry::counter("service.sessions.expired");
    telemetry::Counter &evicted =
        telemetry::counter("service.sessions.evicted");
    telemetry::Gauge &bytes =
        telemetry::gauge("service.storage.bytes");
    // checkSinkNow takes well under 1 us on a drained shard, so the
    // bounds start at 64 ns.
    telemetry::Histogram &sink_latency = telemetry::histogram(
        "service.sink.latency_ns",
        telemetry::exponentialBounds(64, 2.0, 16));
};

ServiceTel &
tel()
{
    static ServiceTel t;
    return t;
}

} // anonymous namespace

/**
 * One striped-lock ingestion shard: a bounded event queue plus the
 * sessions of every pid that hashes here (pid % shards). The mutex
 * guards everything in the struct; per-shard load metrics live here
 * so a hot shard is visible in a telemetry snapshot.
 *
 * The queue is a flat buffer: submitMany appends, and every drain
 * walks it front to back and empties it whole under the mutex, so it
 * needs no head index or per-event pop. Emptying keeps the capacity,
 * so once warm no event allocates on the producer thread or frees on
 * the draining one.
 */
struct TrackingService::Shard
{
    struct Queued
    {
        ServiceEvent ev;
        uint64_t tick = 0; //!< logical ingest clock at acceptance
    };

    explicit Shard(unsigned idx)
        : g_depth(telemetry::gauge("service.shard." +
                                   std::to_string(idx) +
                                   ".queue_depth")),
          g_sessions(telemetry::gauge("service.shard." +
                                      std::to_string(idx) +
                                      ".sessions")),
          c_drained(telemetry::counter("service.shard." +
                                       std::to_string(idx) +
                                       ".drained")),
          c_overflow(telemetry::counter("service.shard." +
                                        std::to_string(idx) +
                                        ".overflows"))
    {
    }

    mutable std::mutex m;
    std::condition_variable cv; //!< threaded mode: work or stop

    using SessionMap = std::map<ProcId, std::unique_ptr<Session>>;

    std::vector<Queued> queue;
    SessionMap sessions; //!< asc pid
    std::set<ProcId> tombstones; //!< shed pids: re-admit = state loss

    /**
     * Logical tick of each pid's latest overflow loss. An overflow
     * postdates everything queued at that moment, so a queued-earlier
     * ClearAll must not erase the mark when it drains (the dropped
     * event is not covered by the clear) — drainLocked consults this
     * map to restore the mark, and drops the entry once a Clear from
     * after the loss makes it moot. Survives session eviction on
     * purpose: the ordering outlives any one session incarnation.
     */
    std::map<ProcId, uint64_t> loss_ticks;

    /**
     * Durable sessions holding journal records since the last group
     * commit (DESIGN.md §14), by pid. drainLocked commits them after
     * every non-empty batch.
     */
    std::vector<ProcId> uncommitted;

    /** Note that @p ses may have journaled records (commit list). */
    void
    journaled(Session &ses)
    {
        if (ses.queueCommit())
            uncommitted.push_back(ses.pid());
    }

    /**
     * Erase one session. Its destructor closes its journal, which
     * commits the buffered tail, so it leaves the commit list too.
     */
    SessionMap::iterator
    eraseSession(SessionMap::iterator it)
    {
        std::erase(uncommitted, it->first);
        return sessions.erase(it);
    }

    // Tallies, guarded by m; stats() sums them across shards.
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t overflows = 0;
    uint64_t drained = 0;
    uint64_t loss_marks = 0;
    uint64_t attached = 0;
    uint64_t detached = 0;
    uint64_t expired = 0;
    uint64_t evicted = 0;

    telemetry::Gauge &g_depth;
    telemetry::Gauge &g_sessions;
    telemetry::Counter &c_drained;
    telemetry::Counter &c_overflow;
};

TrackingService::TrackingService(const ServiceConfig &cfg) : cfg_(cfg)
{
    if (cfg_.shards < 1)
        cfg_.shards = 1;
    if (cfg_.queue_capacity < 1)
        cfg_.queue_capacity = 1;
    shards_.reserve(cfg_.shards);
    for (unsigned i = 0; i < cfg_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>(i));
}

TrackingService::~TrackingService() = default;

TrackingService::Shard &
TrackingService::shardFor(ProcId pid)
{
    return *shards_[pid % shards_.size()];
}

const TrackingService::Shard &
TrackingService::shardFor(ProcId pid) const
{
    return *shards_[pid % shards_.size()];
}

Session &
TrackingService::sessionLocked(Shard &sh, ProcId pid)
{
    auto it = sh.sessions.find(pid);
    if (it != sh.sessions.end())
        return *it->second;
    // Re-admission of a shed pid: its taint history is gone, so the
    // fresh session declares state loss up front (MaybeTainted at
    // sinks) — eviction is never a silent false negative.
    bool lost = sh.tombstones.erase(pid) > 0;
    auto ses = std::make_unique<Session>(pid, cfg_.session, lost);
    Session &ref = *ses;
    sh.sessions.emplace(pid, std::move(ses));
    if (lost)
        sh.journaled(ref); // its StateLoss record
    ++sh.attached;
    tel().attached.inc();
    sh.g_sessions.set(sh.sessions.size());
    return ref;
}

bool
TrackingService::attach(ProcId pid)
{
    Shard &sh = shardFor(pid);
    std::lock_guard<std::mutex> lock(sh.m);
    if (sh.sessions.count(pid))
        return false;
    sessionLocked(sh, pid);
    return true;
}

bool
TrackingService::detach(ProcId pid)
{
    Shard &sh = shardFor(pid);
    std::lock_guard<std::mutex> lock(sh.m);
    // Apply what is already queued first so a final sink check's
    // result is not lost with the session.
    drainLocked(sh);
    auto it = sh.sessions.find(pid);
    if (it == sh.sessions.end())
        return false;
    sh.eraseSession(it);
    // Process exit: any pending loss ordering died with the
    // incarnation (the queue was just drained above).
    sh.loss_ticks.erase(pid);
    ++sh.detached;
    tel().detached.inc();
    sh.g_sessions.set(sh.sessions.size());
    return true;
}

bool
TrackingService::submit(const ServiceEvent &ev)
{
    return submitMany(&ev, 1) == 1;
}

size_t
TrackingService::submitMany(const ServiceEvent *evs, size_t n)
{
    size_t done = 0;
    size_t accepted_total = 0;
    const bool threaded = threaded_.load(std::memory_order_relaxed);
    while (done < n) {
        const size_t si = evs[done].pid % shards_.size();
        Shard &sh = *shards_[si];
        // Extend the run while consecutive events hash to this shard
        // so a per-app burst pays for one lock acquisition.
        size_t run_end = done + 1;
        while (run_end < n && &shardFor(evs[run_end].pid) == &sh)
            ++run_end;
        bool wake = false;
        {
            std::lock_guard<std::mutex> lock(sh.m);
            for (size_t i = done; i < run_end; ++i) {
                ++sh.submitted;
                if (sh.queue.size() >= cfg_.queue_capacity) {
                    // Backpressure: refuse the event, and degrade the
                    // pid *now* — the loss mark must precede any
                    // event accepted later, so a subsequent sink
                    // check can never answer a silent Clean. The
                    // loss draws its own tick: it sits *after* every
                    // event queued right now, and drainLocked uses
                    // that ordering so a queued-earlier ClearAll
                    // cannot silently erase the mark.
                    ++sh.overflows;
                    sh.c_overflow.inc();
                    uint64_t tick =
                        clock_.fetch_add(1, std::memory_order_relaxed) +
                        1;
                    uint64_t &lt = sh.loss_ticks[evs[i].pid];
                    if (tick > lt)
                        lt = tick;
                    Session &ses = sessionLocked(sh, evs[i].pid);
                    ses.noteStreamLoss();
                    sh.journaled(ses);
                    ses.touch(tick);
                    ++sh.loss_marks;
                    tel().loss_marks.inc();
                    continue;
                }
                uint64_t tick =
                    clock_.fetch_add(1, std::memory_order_relaxed) + 1;
                // Grow by doubling up to the bound, never past it.
                if (sh.queue.size() == sh.queue.capacity())
                    sh.queue.reserve(std::min(
                        cfg_.queue_capacity,
                        std::max<size_t>(1, 2 * sh.queue.capacity())));
                sh.queue.push_back(Shard::Queued{evs[i], tick});
                ++sh.accepted;
                ++accepted_total;
                wake = true;
            }
            sh.g_depth.set(sh.queue.size());
        }
        if (threaded && wake) {
            // Wake the worker that owns this shard. With a pool at
            // least as wide as the shard count that is the shard's
            // own condvar; a narrower pool multiplexes shards over
            // workers (stride nworkers_), each parked on the condvar
            // of its primary shard. A notify that races the worker's
            // block on a *secondary* shard's behalf may be lost —
            // the multiplexed wait is timed, bounding the latency.
            size_t nw = nworkers_.load(std::memory_order_acquire);
            Shard &owner =
                (nw && nw < shards_.size()) ? *shards_[si % nw] : sh;
            owner.cv.notify_one();
        }
        done = run_end;
    }
    tel().submitted.inc(n);
    tel().accepted.inc(accepted_total);
    tel().overflowed.inc(n - accepted_total);
    return accepted_total;
}

void
TrackingService::drainLocked(Shard &sh)
{
    const size_t batch = sh.queue.size();
    // Erase what the walk took when it ends, keeping the capacity. A
    // walk an exception unwinds part-way erases only the events it
    // started, so none is applied twice.
    struct Consumed
    {
        std::vector<Shard::Queued> &queue;
        size_t taken = 0;
        ~Consumed() { queue.erase(queue.begin(), queue.begin() + taken); }
    } consumed{sh.queue};
    while (consumed.taken < batch) {
        const Shard::Queued &q = sh.queue[consumed.taken++];
        Session &ses = sessionLocked(sh, q.ev.pid);
        ses.apply(q.ev);
        sh.journaled(ses);
        if (q.ev.kind == EventKind::Clear) {
            // The ClearAll just wiped the tracker's loss marks. An
            // overflow from *after* this Clear was queued dropped an
            // event the clear does not cover — restore the mark so
            // the pid stays MaybeTainted. A loss from before the
            // clear is moot (the cleared state subsumed it): drop it.
            auto it = sh.loss_ticks.find(q.ev.pid);
            if (it != sh.loss_ticks.end()) {
                if (it->second > q.tick) {
                    ses.noteStreamLoss();
                    ++sh.loss_marks;
                    tel().loss_marks.inc();
                } else {
                    sh.loss_ticks.erase(it);
                }
            }
        }
        ses.touch(q.tick);
        ++sh.drained;
    }
    if (batch) {
        // Group commit: each durable session that received records in
        // this batch, or journaled one outside a drain since the last
        // (a sink check, a refused event's loss mark, a re-admission),
        // hands its WAL buffer to the file in one write. An empty
        // drain (a sink check's pre-drain on a drained shard) commits
        // nothing, so the check never pays for a write().
        for (ProcId pid : sh.uncommitted)
            if (auto it = sh.sessions.find(pid); it != sh.sessions.end())
                it->second->commitJournal();
        sh.uncommitted.clear();
        sh.c_drained.inc(batch);
        tel().drained.inc(batch);
        sh.g_depth.set(0);
    }
}

void
TrackingService::pump(unsigned jobs)
{
    exec::parallelFor(
        shards_.size(),
        [&](size_t i) {
            Shard &sh = *shards_[i];
            std::lock_guard<std::mutex> lock(sh.m);
            drainLocked(sh);
        },
        jobs);
}

void
TrackingService::maintain()
{
    // Idle expiry first: a session beyond the idle horizon leaves
    // cleanly when it holds no taint and is not degraded; otherwise
    // its removal is a state loss and the pid is tombstoned.
    const uint64_t now = clock();
    if (cfg_.expire_idle_ticks) {
        for (auto &shp : shards_) {
            Shard &sh = *shp;
            std::lock_guard<std::mutex> lock(sh.m);
            for (auto it = sh.sessions.begin();
                 it != sh.sessions.end();) {
                Session &ses = *it->second;
                // A session touched by a concurrent drain/sink check
                // after the `now` snapshot has lastActive > now; it
                // is maximally active, not idle — without the first
                // test the subtraction would wrap and expire it.
                if (ses.lastActive() >= now ||
                    now - ses.lastActive() <= cfg_.expire_idle_ticks) {
                    ++it;
                    continue;
                }
                if (ses.storageBytes() != 0 || ses.degraded())
                    sh.tombstones.insert(it->first);
                it = sh.eraseSession(it);
                ++sh.expired;
                tel().expired.inc();
            }
            sh.g_sessions.set(sh.sessions.size());
        }
    }

    // Byte-ceiling eviction: shed least-recently-active sessions
    // (total order on (last_active, pid) — the logical clock, so the
    // choice is deterministic) until aggregate storage fits again.
    struct Victim
    {
        uint64_t last_active;
        ProcId pid;
        unsigned shard;
        uint64_t bytes;
    };
    uint64_t total = 0;
    std::vector<Victim> victims;
    for (unsigned si = 0; si < shards_.size(); ++si) {
        Shard &sh = *shards_[si];
        std::lock_guard<std::mutex> lock(sh.m);
        for (const auto &kv : sh.sessions) {
            uint64_t b = kv.second->storageBytes();
            total += b;
            if (b)
                victims.push_back(
                    Victim{kv.second->lastActive(), kv.first, si, b});
        }
    }
    tel().bytes.set(total);
    if (!cfg_.memory_ceiling || total <= cfg_.memory_ceiling)
        return;
    std::sort(victims.begin(), victims.end(),
              [](const Victim &a, const Victim &b) {
                  return a.last_active != b.last_active
                             ? a.last_active < b.last_active
                             : a.pid < b.pid;
              });
    for (const Victim &v : victims) {
        if (total <= cfg_.memory_ceiling)
            break;
        Shard &sh = *shards_[v.shard];
        std::lock_guard<std::mutex> lock(sh.m);
        auto it = sh.sessions.find(v.pid);
        if (it == sh.sessions.end())
            continue;
        sh.tombstones.insert(v.pid);
        sh.eraseSession(it);
        total -= v.bytes;
        ++sh.evicted;
        tel().evicted.inc();
        sh.g_sessions.set(sh.sessions.size());
    }
    tel().bytes.set(total);
}

core::SinkVerdict
TrackingService::checkSinkNow(ProcId pid, Addr start, Addr end,
                              uint32_t id)
{
    auto t0 = std::chrono::steady_clock::now();
    Shard &sh = shardFor(pid);
    core::SinkVerdict v;
    {
        std::lock_guard<std::mutex> lock(sh.m);
        // The check must observe every event accepted before it.
        drainLocked(sh);
        Session &ses = sessionLocked(sh, pid);
        v = ses.checkSink(taint::AddrRange(start, end), id);
        // The check's journal record waits for the next drain.
        sh.journaled(ses);
        ses.touch(clock_.fetch_add(1, std::memory_order_relaxed) + 1);
    }
    auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    tel().sink_latency.observe(static_cast<uint64_t>(dt));
    return v;
}

void
TrackingService::workerLoop(size_t first, size_t stride)
{
    Shard &primary = *shards_[first];
    // With a pool at least as wide as the shard count each worker
    // owns exactly one shard and parks event-driven on its condvar.
    // A narrower pool multiplexes: this worker also serves shards
    // first+stride, first+2*stride, ... — their submits notify the
    // primary's condvar, but that notify is not ordered with this
    // wait (different mutexes), so the wait is timed to bound the
    // latency of a lost secondary wakeup.
    const bool multiplexed = first + stride < shards_.size();
    for (;;) {
        bool stop_seen;
        {
            std::unique_lock<std::mutex> lock(primary.m);
            auto ready = [&] {
                return stopping_.load(std::memory_order_acquire) ||
                       !primary.queue.empty();
            };
            if (multiplexed)
                primary.cv.wait_for(
                    lock, std::chrono::milliseconds(2), ready);
            else
                primary.cv.wait(lock, ready);
            drainLocked(primary);
            stop_seen = stopping_.load(std::memory_order_acquire);
        }
        for (size_t i = first + stride; i < shards_.size();
             i += stride) {
            Shard &sh = *shards_[i];
            std::lock_guard<std::mutex> l(sh.m);
            drainLocked(sh);
        }
        // Every owned shard was drained after stopping_ was observed
        // (stop() orders its store before our predicate via the
        // shard mutex), so nothing submitted before stop() is left.
        if (stop_seen)
            return;
    }
}

void
TrackingService::runWorkers(exec::ThreadPool &pool)
{
    size_t nworkers =
        std::min<size_t>(pool.threads() ? pool.threads() : 1,
                         shards_.size());
    if (nworkers < shards_.size())
        pift_warn_limited(
            4,
            "service: pool narrower than shard count (%u < %zu); "
            "workers multiplex shards with timed waits",
            pool.threads(), shards_.size());
    // stopping_ is not cleared here: a stop() that lands before this
    // call (the caller starts runWorkers on a thread of its own) must
    // still end this run, or its workers would wait forever. It is
    // cleared when the run it ended returns.
    nworkers_.store(nworkers, std::memory_order_release);
    threaded_.store(true, std::memory_order_release);
    pool.forEach(nworkers, [this, nworkers](size_t i) {
        workerLoop(i, nworkers);
    });
    threaded_.store(false, std::memory_order_release);
    nworkers_.store(0, std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
}

void
TrackingService::stop()
{
    stopping_.store(true, std::memory_order_release);
    for (auto &shp : shards_) {
        // The empty critical section orders the stopping_ store with
        // a worker's predicate evaluation: without it a worker that
        // read stopping_ == false could block *after* the notify
        // fired and sleep forever (a lost wakeup TSan cannot see).
        { std::lock_guard<std::mutex> lock(shp->m); }
        shp->cv.notify_all();
    }
}

PidState
TrackingService::pidState(ProcId pid) const
{
    const Shard &sh = shardFor(pid);
    std::lock_guard<std::mutex> lock(sh.m);
    if (sh.sessions.count(pid))
        return PidState::Active;
    if (sh.tombstones.count(pid))
        return PidState::Shed;
    return PidState::Unknown;
}

std::vector<core::SinkResult>
TrackingService::sinkResultsFor(ProcId pid) const
{
    const Shard &sh = shardFor(pid);
    std::lock_guard<std::mutex> lock(sh.m);
    auto it = sh.sessions.find(pid);
    if (it == sh.sessions.end())
        return {};
    return it->second->sinkResults();
}

const provenance::Recorder *
TrackingService::recorderFor(ProcId pid) const
{
    const Shard &sh = shardFor(pid);
    std::lock_guard<std::mutex> lock(sh.m);
    auto it = sh.sessions.find(pid);
    return it == sh.sessions.end() ? nullptr
                                   : it->second->recorder();
}

ServiceStats
TrackingService::stats() const
{
    ServiceStats s;
    for (const auto &shp : shards_) {
        const Shard &sh = *shp;
        std::lock_guard<std::mutex> lock(sh.m);
        s.submitted += sh.submitted;
        s.accepted += sh.accepted;
        s.overflowed += sh.overflows;
        s.drained += sh.drained;
        s.loss_marks += sh.loss_marks;
        s.attached += sh.attached;
        s.detached += sh.detached;
        s.expired += sh.expired;
        s.evicted += sh.evicted;
        s.active_sessions += sh.sessions.size();
        for (const auto &kv : sh.sessions)
            s.storage_bytes += kv.second->storageBytes();
    }
    return s;
}

std::vector<SessionInfo>
TrackingService::sessions() const
{
    std::vector<SessionInfo> out;
    for (const auto &shp : shards_) {
        const Shard &sh = *shp;
        std::lock_guard<std::mutex> lock(sh.m);
        for (const auto &kv : sh.sessions) {
            SessionInfo info;
            info.pid = kv.first;
            info.storage_bytes = kv.second->storageBytes();
            info.last_active = kv.second->lastActive();
            info.events = kv.second->eventsApplied();
            info.degraded = kv.second->degraded();
            info.durable_healthy = kv.second->durableHealthy();
            out.push_back(info);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const SessionInfo &a, const SessionInfo &b) {
                  return a.pid < b.pid;
              });
    return out;
}

std::vector<ServiceEvent>
eventsFromTrace(const sim::Trace &trace, ProcId pid)
{
    std::vector<ServiceEvent> out;
    out.reserve(trace.records.size() + trace.controls.size());
    auto pushControl = [&](const sim::ControlEvent &c) {
        ServiceEvent ev;
        ev.pid = pid;
        ev.kind = c.kind == sim::ControlKind::RegisterSource
                      ? EventKind::Source
                      : c.kind == sim::ControlKind::CheckSink
                            ? EventKind::Sink
                            : EventKind::Clear;
        ev.start = c.start;
        ev.end = c.end;
        ev.id = c.id;
        out.push_back(ev);
    };
    size_t ci = 0;
    for (size_t ri = 0; ri < trace.records.size(); ++ri) {
        // Same merge rule as sim::replay — a control fires once seq
        // records precede it.
        while (ci < trace.controls.size() &&
               trace.controls[ci].seq <= ri)
            pushControl(trace.controls[ci++]);
        const sim::TraceRecord &r = trace.records[ri];
        if (r.mem_kind == sim::MemKind::None)
            continue;
        ServiceEvent ev;
        ev.pid = pid;
        ev.kind = r.mem_kind == sim::MemKind::Load ? EventKind::Load
                                                   : EventKind::Store;
        ev.start = r.mem_start;
        ev.end = r.mem_end;
        ev.local_seq = r.local_seq;
        out.push_back(ev);
    }
    while (ci < trace.controls.size())
        pushControl(trace.controls[ci++]);
    return out;
}

} // namespace pift::service
