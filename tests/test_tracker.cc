/**
 * @file
 * Unit tests for Algorithm 1 (PiftTracker): window opening/restart,
 * the NT propagation budget, untainting, the exact Figure 4 scenario,
 * per-process isolation, control events and configuration.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/pift_tracker.hh"
#include "core/taint_store.hh"

using namespace pift;
using core::IdealRangeStore;
using core::PiftParams;
using core::PiftTracker;
using taint::AddrRange;

namespace
{

/** Builder for synthetic per-process event streams. */
class Stream
{
  public:
    explicit Stream(PiftTracker &tracker) : tr(tracker) {}

    /** Advance k non-memory instructions. */
    Stream &
    step(unsigned k = 1)
    {
        for (unsigned i = 0; i < k; ++i) {
            sim::TraceRecord r;
            r.pid = pid;
            r.local_seq = next(pid);
            r.op = isa::Op::Add;
            tr.onRecord(r);
        }
        return *this;
    }

    Stream &
    load(Addr start, Addr end)
    {
        sim::TraceRecord r;
        r.pid = pid;
        r.local_seq = next(pid);
        r.op = isa::Op::Ldr;
        r.mem_kind = sim::MemKind::Load;
        r.mem_start = start;
        r.mem_end = end;
        tr.onRecord(r);
        return *this;
    }

    Stream &
    store(Addr start, Addr end)
    {
        sim::TraceRecord r;
        r.pid = pid;
        r.local_seq = next(pid);
        r.op = isa::Op::Str;
        r.mem_kind = sim::MemKind::Store;
        r.mem_start = start;
        r.mem_end = end;
        tr.onRecord(r);
        return *this;
    }

    Stream &
    source(Addr start, Addr end)
    {
        sim::ControlEvent ev;
        ev.pid = pid;
        ev.kind = sim::ControlKind::RegisterSource;
        ev.start = start;
        ev.end = end;
        tr.onControl(ev);
        return *this;
    }

    bool
    check(Addr start, Addr end, uint32_t id = 0)
    {
        sim::ControlEvent ev;
        ev.pid = pid;
        ev.kind = sim::ControlKind::CheckSink;
        ev.start = start;
        ev.end = end;
        ev.id = id;
        tr.onControl(ev);
        return tr.sinkResults().back().tainted;
    }

    Stream &
    proc(ProcId p)
    {
        pid = p;
        return *this;
    }

  private:
    SeqNum
    next(ProcId p)
    {
        return counters[p]++;
    }

    PiftTracker &tr;
    ProcId pid = 1;
    std::map<ProcId, SeqNum> counters;
};

struct Fixture
{
    explicit Fixture(PiftParams params = {})
        : tracker(params, store), s(tracker)
    {}

    IdealRangeStore store;
    PiftTracker tracker;
    Stream s;
};

} // namespace

TEST(Tracker, StoreInsideWindowIsTainted)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);   // tainted load -> window opens
    f.s.step(2);
    f.s.store(0x2000, 0x2003);  // within NI=5
    EXPECT_TRUE(f.store.query(1, AddrRange(0x2000, 0x2003)));
}

TEST(Tracker, StoreOutsideWindowIsNotTainted)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.s.step(6);                // window (NI=5) expired
    f.s.store(0x2000, 0x2003);
    EXPECT_FALSE(f.store.query(1, AddrRange(0x2000, 0x2003)));
}

TEST(Tracker, StoreExactlyAtWindowEdge)
{
    // k <= LTLT + NI is inclusive.
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);   // LTLT = k
    f.s.step(4);
    f.s.store(0x2000, 0x2003);  // at k + 5 exactly
    EXPECT_TRUE(f.store.query(1, AddrRange(0x2000, 0x2003)));
}

TEST(Tracker, NonTaintedLoadDoesNotOpenWindow)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x9000, 0x9003);   // clean load
    f.s.store(0x2000, 0x2003);
    EXPECT_FALSE(f.store.query(1, AddrRange(0x2000, 0x2003)));
}

TEST(Tracker, PartialOverlapOpensWindow)
{
    // The paper's overlap condition is any intersection.
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x1007);
    f.s.load(0x1006, 0x1009);   // overlaps the last two bytes
    f.s.store(0x2000, 0x2001);
    EXPECT_TRUE(f.store.query(1, AddrRange(0x2000, 0x2001)));
}

TEST(Tracker, PropagationBudgetNT)
{
    Fixture f({10, 2, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.s.store(0x2000, 0x2003);  // NT 1
    f.s.store(0x3000, 0x3003);  // NT 2
    f.s.store(0x4000, 0x4003);  // budget exhausted -> untaint path
    EXPECT_TRUE(f.store.query(1, AddrRange(0x2000, 0x2003)));
    EXPECT_TRUE(f.store.query(1, AddrRange(0x3000, 0x3003)));
    EXPECT_FALSE(f.store.query(1, AddrRange(0x4000, 0x4003)));
}

TEST(Tracker, TaintedLoadRestartsWindowAndBudget)
{
    Fixture f({5, 1, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.s.store(0x2000, 0x2003);  // consumes the only propagation
    f.s.load(0x1004, 0x1007);   // restart: budget back to 0 used
    f.s.store(0x3000, 0x3003);  // tainted again
    EXPECT_TRUE(f.store.query(1, AddrRange(0x3000, 0x3003)));
}

TEST(Tracker, NoRestartVariantKeepsOriginalWindow)
{
    PiftParams p{5, 3, true};
    p.restart = false;
    Fixture f(p);
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);   // opens at k
    f.s.step(3);
    f.s.load(0x1004, 0x1007);   // would restart under Algorithm 1
    f.s.step(3);                // now k+8: outside original window
    f.s.store(0x2000, 0x2003);
    EXPECT_FALSE(f.store.query(1, AddrRange(0x2000, 0x2003)));

    // Under default (restart) semantics the same stream taints.
    Fixture g({5, 3, true});
    g.s.source(0x1000, 0x100f);
    g.s.load(0x1000, 0x1003);
    g.s.step(3);
    g.s.load(0x1004, 0x1007);
    g.s.step(3);
    g.s.store(0x2000, 0x2003);
    EXPECT_TRUE(g.store.query(1, AddrRange(0x2000, 0x2003)));
}

TEST(Tracker, UntaintingRemovesStaleTaint)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.s.store(0x2000, 0x2003);  // tainted
    f.s.step(10);               // window closes
    f.s.store(0x2000, 0x2003);  // overwrite -> untaint
    EXPECT_FALSE(f.store.query(1, AddrRange(0x2000, 0x2003)));
    EXPECT_EQ(f.tracker.stats().untaint_ops, 1u);
}

TEST(Tracker, UntaintingDisabledKeepsTaint)
{
    Fixture f({5, 3, false});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.s.store(0x2000, 0x2003);
    f.s.step(10);
    f.s.store(0x2000, 0x2003);
    EXPECT_TRUE(f.store.query(1, AddrRange(0x2000, 0x2003)));
    EXPECT_EQ(f.tracker.stats().untaint_ops, 0u);
}

TEST(Tracker, Figure4Scenario)
{
    // The exact example of Figure 4: NT = 2, a tainted load, four
    // stores at increasing distances, a non-tainted load, one more
    // store. NI chosen so the 4th store falls outside the window.
    Fixture f({8, 2, true});
    f.s.source(0x1000, 0x100f);

    f.s.load(0x1000, 0x1001);    // [k] tainted load, TW starts
    f.s.step(1);
    f.s.store(0x2000, 0x2003);   // [k+2] taint (1st propagation)
    f.s.step(1);
    f.s.store(0x3000, 0x3007);   // [k+4] taint (2nd propagation)
    f.s.step(1);
    f.s.store(0x4000, 0x4003);   // [k+6] in window but NT exhausted
    f.s.step(3);
    f.s.store(0x5000, 0x5001);   // [k+10] outside TW -> untaint
    f.s.load(0x9000, 0x9001);    // non-tainted load: no new TW
    f.s.store(0x6000, 0x6003);   // still outside -> untaint

    EXPECT_TRUE(f.store.query(1, AddrRange(0x2000, 0x2003)));
    EXPECT_TRUE(f.store.query(1, AddrRange(0x3000, 0x3007)));
    EXPECT_FALSE(f.store.query(1, AddrRange(0x4000, 0x4003)));
    EXPECT_FALSE(f.store.query(1, AddrRange(0x5000, 0x5001)));
    EXPECT_FALSE(f.store.query(1, AddrRange(0x6000, 0x6003)));
    EXPECT_EQ(f.tracker.stats().tainted_loads, 1u);
    EXPECT_EQ(f.tracker.stats().taint_ops, 3u); // source + 2 stores
}

TEST(Tracker, ChainOfLoadStoreHops)
{
    // store -> later load of the tainted copy -> further store: the
    // chain of load-store segments the paper describes in Section 1.
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1001);
    f.s.store(0x2000, 0x2001);
    f.s.step(20);
    f.s.load(0x2000, 0x2001);   // copy is tainted: new window
    f.s.store(0x3000, 0x3001);
    f.s.step(20);
    EXPECT_TRUE(f.s.check(0x3000, 0x3001));
}

TEST(Tracker, ProcessIsolation)
{
    Fixture f({5, 3, true});
    f.s.proc(1).source(0x1000, 0x100f);
    // Process 2 loads the same physical range: its taint set is
    // separate (entries are PID-tagged, Figure 6).
    f.s.proc(2).load(0x1000, 0x1003);
    f.s.proc(2).store(0x2000, 0x2003);
    EXPECT_FALSE(f.store.query(2, AddrRange(0x2000, 0x2003)));

    // Process 1's window is unaffected by process 2's instructions.
    f.s.proc(1).load(0x1000, 0x1003);
    f.s.proc(2).step(50);
    f.s.proc(1).store(0x3000, 0x3003);
    EXPECT_TRUE(f.store.query(1, AddrRange(0x3000, 0x3003)));
}

TEST(Tracker, SinkResultsRecordEverything)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    EXPECT_TRUE(f.s.check(0x1004, 0x1005, 7));
    EXPECT_FALSE(f.s.check(0x9000, 0x9001, 8));
    ASSERT_EQ(f.tracker.sinkResults().size(), 2u);
    EXPECT_EQ(f.tracker.sinkResults()[0].sink_id, 7u);
    EXPECT_TRUE(f.tracker.sinkResults()[0].tainted);
    EXPECT_EQ(f.tracker.sinkResults()[1].sink_id, 8u);
    EXPECT_FALSE(f.tracker.sinkResults()[1].tainted);
    EXPECT_TRUE(f.tracker.anyLeak());
}

TEST(Tracker, ClearAllDropsStateAndWindows)
{
    Fixture f({10, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    sim::ControlEvent ev;
    ev.pid = 1;
    ev.kind = sim::ControlKind::ClearAll;
    f.tracker.onControl(ev);
    f.s.store(0x2000, 0x2003);  // window was discarded
    EXPECT_FALSE(f.store.query(1, AddrRange(0x2000, 0x2003)));
    EXPECT_FALSE(f.s.check(0x1000, 0x100f));
}

TEST(Tracker, MaximaTracked)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x10ff);   // 256 bytes
    f.s.load(0x1000, 0x1003);
    f.s.store(0x2000, 0x2009);    // +10 bytes
    f.s.step(10);
    f.s.store(0x2000, 0x2009);    // untaint back down
    EXPECT_EQ(f.tracker.stats().max_tainted_bytes, 266u);
    EXPECT_EQ(f.tracker.stats().max_ranges, 2u);
    EXPECT_EQ(f.store.bytes(), 256u);
}

TEST(Tracker, SetParamsResetsWindows)
{
    Fixture f({20, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.tracker.setParams({5, 1, true});
    f.s.store(0x2000, 0x2003);  // old window must be gone
    EXPECT_FALSE(f.store.query(1, AddrRange(0x2000, 0x2003)));
    EXPECT_EQ(f.tracker.params().ni, 5u);
}

TEST(Tracker, ResetClearsStatsNotStore)
{
    Fixture f({5, 3, true});
    f.s.source(0x1000, 0x100f);
    f.s.load(0x1000, 0x1003);
    f.s.store(0x2000, 0x2003);
    f.tracker.reset();
    EXPECT_EQ(f.tracker.stats().loads, 0u);
    EXPECT_TRUE(f.tracker.sinkResults().empty());
    // Taint state itself belongs to the store and survives.
    EXPECT_TRUE(f.store.query(1, AddrRange(0x1000, 0x1000)));
}
