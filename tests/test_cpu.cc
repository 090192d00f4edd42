/**
 * @file
 * Unit tests for the CPU model: ALU semantics, flags and condition
 * codes (parameterized sweeps), addressing modes with writeback,
 * branches, load/store multiple, SVC trapping, per-process counters
 * and re-entrant subroutine calls.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "mem/memory.hh"
#include "sim/cpu.hh"
#include "sim/trace.hh"

using namespace pift;
using namespace pift::isa;
using sim::Cpu;
using sim::EventHub;
using sim::TraceBuffer;

namespace
{

struct Machine
{
    Machine() : cpu(memory, hub) { hub.addSink(&buffer); }

    /** Load a program at 0x8000 and run it to the Halt. */
    void
    run(Assembler &a)
    {
        a.halt();
        cpu.loadProgram(a.finish());
        cpu.setPc(0x8000);
        cpu.run();
    }

    mem::Memory memory;
    EventHub hub;
    TraceBuffer buffer;
    Cpu cpu;
};

} // namespace

struct AluCase
{
    const char *name;
    std::function<void(Assembler &)> emit;
    uint32_t r1, r2;      // initial r1, r2
    uint32_t expect_r0;   // result in r0
};

class AluSemantics : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluSemantics, ComputesExpectedResult)
{
    const AluCase &c = GetParam();
    Machine m;
    Assembler a(0x8000);
    c.emit(a);
    m.cpu.setReg(1, c.r1);
    m.cpu.setReg(2, c.r2);
    m.run(a);
    EXPECT_EQ(m.cpu.reg(0), c.expect_r0) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluSemantics,
    ::testing::Values(
        AluCase{"mov_imm", [](Assembler &a) { a.movi(0, 42); },
                0, 0, 42},
        AluCase{"mov_reg", [](Assembler &a) { a.mov(0, reg(1)); },
                7, 0, 7},
        AluCase{"mov_lsl", [](Assembler &a) { a.mov(0, regLsl(1, 4)); },
                3, 0, 48},
        AluCase{"mov_lsr", [](Assembler &a) { a.mov(0, regLsr(1, 12)); },
                0xabcd1234, 0, 0xabcd1},
        AluCase{"mvn", [](Assembler &a) { a.mvn(0, reg(1)); },
                0x0f0f0f0f, 0, 0xf0f0f0f0},
        AluCase{"add", [](Assembler &a) { a.add(0, 1, reg(2)); },
                10, 32, 42},
        AluCase{"add_shifted",
                [](Assembler &a) { a.add(0, 1, regLsl(2, 2)); },
                100, 5, 120},
        AluCase{"sub", [](Assembler &a) { a.sub(0, 1, reg(2)); },
                50, 8, 42},
        AluCase{"sub_wraps", [](Assembler &a) { a.sub(0, 1, reg(2)); },
                0, 1, 0xffffffff},
        AluCase{"rsb", [](Assembler &a) { a.rsb(0, 1, imm(100)); },
                58, 0, 42},
        AluCase{"mul", [](Assembler &a) { a.mul(0, 1, 2); },
                6, 7, 42},
        AluCase{"and", [](Assembler &a) { a.and_(0, 1, imm(255)); },
                0x1234, 0, 0x34},
        AluCase{"orr", [](Assembler &a) { a.orr(0, 1, reg(2)); },
                0xf0, 0x0f, 0xff},
        AluCase{"eor", [](Assembler &a) { a.eor(0, 1, reg(2)); },
                0xff, 0x0f, 0xf0},
        AluCase{"bic", [](Assembler &a) { a.bic(0, 1, imm(0xf)); },
                0xff, 0, 0xf0},
        AluCase{"lsl_reg", [](Assembler &a) { a.lsl(0, 1, reg(2)); },
                1, 5, 32},
        AluCase{"lsr_imm", [](Assembler &a) { a.lsr(0, 1, imm(8)); },
                0xaabbcc, 0, 0xaabb},
        AluCase{"asr_negative",
                [](Assembler &a) { a.asr(0, 1, imm(4)); },
                0xffffff00, 0, 0xfffffff0},
        AluCase{"ubfx", [](Assembler &a) { a.ubfx(0, 1, 8, 4); },
                0x0000ab00, 0, 0xb},
        AluCase{"sbfx_signext",
                [](Assembler &a) { a.sbfx(0, 1, 12, 4); },
                0x0000f000, 0, 0xffffffff},
        AluCase{"sxth", [](Assembler &a) { a.sxth(0, 1); },
                0x1234ffff, 0, 0xffffffff},
        AluCase{"uxth", [](Assembler &a) { a.uxth(0, 1); },
                0x1234abcd, 0, 0xabcd},
        AluCase{"uxtb", [](Assembler &a) { a.uxtb(0, 1); },
                0x123456ff, 0, 0xff}),
    [](const ::testing::TestParamInfo<AluCase> &info) {
        return info.param.name;
    });

struct CondCase
{
    const char *name;
    Cond cond;
    uint32_t lhs, rhs;  // cmp lhs, rhs
    bool taken;
};

class ConditionCodes : public ::testing::TestWithParam<CondCase>
{};

TEST_P(ConditionCodes, BranchFollowsFlags)
{
    const CondCase &c = GetParam();
    Machine m;
    Assembler a(0x8000);
    a.cmp(1, reg(2));
    a.movi(0, 0);
    a.b("taken", c.cond);
    a.halt();
    a.label("taken");
    a.movi(0, 1);
    m.cpu.setReg(1, c.lhs);
    m.cpu.setReg(2, c.rhs);
    m.run(a);
    EXPECT_EQ(m.cpu.reg(0), c.taken ? 1u : 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConds, ConditionCodes,
    ::testing::Values(
        CondCase{"eq_equal", Cond::Eq, 5, 5, true},
        CondCase{"eq_unequal", Cond::Eq, 5, 6, false},
        CondCase{"ne", Cond::Ne, 5, 6, true},
        CondCase{"cs_unsigned_ge", Cond::Cs, 6, 5, true},
        CondCase{"cc_unsigned_lt", Cond::Cc, 4, 5, true},
        CondCase{"mi_negative", Cond::Mi, 3, 5, true},
        CondCase{"pl_positive", Cond::Pl, 7, 5, true},
        CondCase{"ge_signed", Cond::Ge, 5, 5, true},
        CondCase{"ge_negative_rhs", Cond::Ge, 1,
                 static_cast<uint32_t>(-1), true},
        CondCase{"lt_signed", Cond::Lt, static_cast<uint32_t>(-2), 1,
                 true},
        CondCase{"gt_strict", Cond::Gt, 6, 5, true},
        CondCase{"gt_equal_not", Cond::Gt, 5, 5, false},
        CondCase{"le_equal", Cond::Le, 5, 5, true},
        CondCase{"le_greater_not", Cond::Le, 6, 5, false}),
    [](const ::testing::TestParamInfo<CondCase> &info) {
        return info.param.name;
    });

TEST(CpuMemory, AddressingModes)
{
    Machine m;
    m.memory.write32(0x1000, 0x11111111);
    m.memory.write32(0x1004, 0x22222222);
    m.memory.write16(0x1008, 0x3333);

    Assembler a(0x8000);
    a.movi(5, 0x1000);
    a.movi(3, 1);
    a.ldr(0, memOff(5, 4));        // offset
    a.ldr(1, memIdx(5, 3, 2));     // base + (index << 2)
    a.ldrh(2, memOff(5, 8));
    m.run(a);
    EXPECT_EQ(m.cpu.reg(0), 0x22222222u);
    EXPECT_EQ(m.cpu.reg(1), 0x22222222u);
    EXPECT_EQ(m.cpu.reg(2), 0x3333u);
}

TEST(CpuMemory, PreIndexWritebackIsFetchAdvance)
{
    // ldrh r7, [r4, #2]! — the mterp FETCH_ADVANCE_INST.
    Machine m;
    m.memory.write16(0x2002, 0xbeef);
    Assembler a(0x8000);
    a.movi(4, 0x2000);
    a.ldrh(7, memOff(4, 2, WriteBack::Pre));
    m.run(a);
    EXPECT_EQ(m.cpu.reg(7), 0xbeefu);
    EXPECT_EQ(m.cpu.reg(4), 0x2002u); // base updated to the EA
}

TEST(CpuMemory, PostIndexWriteback)
{
    Machine m;
    m.memory.write16(0x2000, 0x1111);
    Assembler a(0x8000);
    a.movi(4, 0x2000);
    a.ldrh(7, memOff(4, 2, WriteBack::Post));
    m.run(a);
    EXPECT_EQ(m.cpu.reg(7), 0x1111u); // accessed at the old base
    EXPECT_EQ(m.cpu.reg(4), 0x2002u);
}

TEST(CpuMemory, LoadStorePair)
{
    Machine m;
    Assembler a(0x8000);
    a.movi(5, 0x3000);
    a.movi(0, 0x1111);
    a.movi(1, 0x2222);
    a.strd(0, memOff(5, 0));
    a.ldrd(2, memOff(5, 0));
    m.run(a);
    EXPECT_EQ(m.memory.read32(0x3000), 0x1111u);
    EXPECT_EQ(m.memory.read32(0x3004), 0x2222u);
    EXPECT_EQ(m.cpu.reg(2), 0x1111u);
    EXPECT_EQ(m.cpu.reg(3), 0x2222u);
}

TEST(CpuMemory, LoadStoreMultipleWithWriteback)
{
    Machine m;
    Assembler a(0x8000);
    a.movi(10, 0x4000);
    a.movi(4, 0xa);
    a.movi(5, 0xb);
    a.movi(6, 0xc);
    a.stm(10, 4, 3);
    a.movi(4, 0);
    a.movi(5, 0);
    a.movi(6, 0);
    a.movi(10, 0x4000);
    a.ldm(10, 4, 3);
    m.run(a);
    EXPECT_EQ(m.cpu.reg(4), 0xau);
    EXPECT_EQ(m.cpu.reg(5), 0xbu);
    EXPECT_EQ(m.cpu.reg(6), 0xcu);
    EXPECT_EQ(m.cpu.reg(10), 0x400cu); // writeback after ldm
}

TEST(CpuControl, ComputedDispatchViaPcWrite)
{
    // add pc, r8, r12, lsl #7 — the mterp GOTO_OPCODE.
    Machine m;
    Assembler table(0x9000);
    table.movi(0, 111).halt();
    m.cpu.loadProgram(table.finish());
    Assembler slot1(0x9080);
    slot1.movi(0, 222).halt();
    m.cpu.loadProgram(slot1.finish());

    Assembler a(0x8000);
    a.movi(8, 0x9000);
    a.movi(12, 1);
    a.add(15, 8, regLsl(12, 7));
    a.halt(); // skipped by the pc write
    m.cpu.loadProgram(a.finish());
    m.cpu.setPc(0x8000);
    m.cpu.run();
    EXPECT_EQ(m.cpu.reg(0), 222u);
}

TEST(CpuControl, BranchAndLinkSetsLr)
{
    Machine m;
    Assembler sub(0x9000);
    sub.movi(0, 7);
    sub.bx(14);
    m.cpu.loadProgram(sub.finish());

    Assembler a(0x8000);
    a.blAbs(0x9000);
    a.add(0, 0, imm(1));
    m.run(a);
    EXPECT_EQ(m.cpu.reg(0), 8u);
}

TEST(CpuControl, ConditionalMemoryOpSkippedWithoutAccess)
{
    Machine m;
    m.memory.write32(0x1000, 0xdead);
    Assembler a(0x8000);
    a.movi(5, 0x1000);
    a.movi(0, 0);
    a.cmp(0, imm(1));                 // not equal
    a.ldr(1, memOff(5, 0), Cond::Eq); // must not execute
    m.run(a);
    EXPECT_EQ(m.cpu.reg(1), 0u);
    // The failed-condition instruction retires without a mem access.
    bool saw_load = false;
    for (const auto &rec : m.buffer.trace().records)
        if (rec.mem_kind == sim::MemKind::Load)
            saw_load = true;
    EXPECT_FALSE(saw_load);
}

TEST(CpuTrace, RecordsCarryOperandsAndRanges)
{
    Machine m;
    Assembler a(0x8000);
    a.movi(5, 0x1000);
    a.movi(6, 0xab);
    a.strh(6, memOff(5, 4));
    m.run(a);
    const auto &recs = m.buffer.trace().records;
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[2].op, Op::Strh);
    EXPECT_EQ(recs[2].mem_kind, sim::MemKind::Store);
    EXPECT_EQ(recs[2].mem_start, 0x1004u);
    EXPECT_EQ(recs[2].mem_end, 0x1005u);
    EXPECT_EQ(recs[2].src[0], 6);
    EXPECT_EQ(recs[2].seq, 2u);
    EXPECT_EQ(recs[2].pid, 1u);
}

TEST(CpuTrace, PerProcessInstructionCounters)
{
    Machine m;
    Assembler a(0x8000);
    a.nop().nop().nop().halt();
    m.cpu.loadProgram(a.finish());

    m.cpu.setPid(10);
    m.cpu.setPc(0x8000);
    m.cpu.run();
    m.cpu.setPid(20);
    m.cpu.setPc(0x8000);
    m.cpu.run();
    m.cpu.setPc(0x8000);
    m.cpu.run();

    EXPECT_EQ(m.cpu.localCount(10), 3u);
    EXPECT_EQ(m.cpu.localCount(20), 6u);
    EXPECT_EQ(m.cpu.localCount(99), 0u);
    // local_seq restarts per pid in the trace records.
    const auto &recs = m.buffer.trace().records;
    ASSERT_EQ(recs.size(), 9u);
    EXPECT_EQ(recs[0].local_seq, 0u);
    EXPECT_EQ(recs[3].pid, 20u);
    EXPECT_EQ(recs[3].local_seq, 0u);
    EXPECT_EQ(recs[8].local_seq, 5u);
}

TEST(CpuSvc, HandlerRunsAndCanNest)
{
    Machine m;
    Assembler sub(0x9000);
    sub.add(0, 0, imm(100));
    sub.bx(14);
    m.cpu.loadProgram(sub.finish());

    int traps = 0;
    m.cpu.setSvcHandler([&](Cpu &cpu, uint32_t num) {
        ++traps;
        EXPECT_EQ(num, 42u);
        cpu.call(0x9000); // nested execution inside the trap
    });

    Assembler a(0x8000);
    a.movi(0, 1);
    a.svc(42);
    a.add(0, 0, imm(10)); // continues after the trap
    m.run(a);
    EXPECT_EQ(traps, 1);
    EXPECT_EQ(m.cpu.reg(0), 111u);
}

TEST(CpuSvc, SvcRecordCarriesNumber)
{
    Machine m;
    m.cpu.setSvcHandler([](Cpu &, uint32_t) {});
    Assembler a(0x8000);
    a.svc(17);
    m.run(a);
    EXPECT_EQ(m.buffer.trace().records[0].aux, 17u);
}

TEST(CpuGuards, UnmappedFetchPanics)
{
    Machine m;
    m.cpu.setPc(0xdead0000);
    EXPECT_DEATH(m.cpu.run(), "unmapped");
}

TEST(CpuGuards, RunawayBudgetPanics)
{
    Machine m;
    Assembler a(0x8000);
    a.label("spin");
    a.b("spin");
    m.cpu.loadProgram(a.finish());
    m.cpu.setPc(0x8000);
    EXPECT_DEATH(m.cpu.run(1000), "budget");
}

TEST(CpuGuards, UnimplementedOpcodePanics)
{
    Machine m;
    Assembler a(0x8000);
    a.nop();
    Program prog = a.finish();
    prog.insts[0].op = Op::NumOps;
    m.cpu.loadProgram(std::move(prog));
    m.cpu.setPc(0x8000);
    EXPECT_DEATH(m.cpu.run(), "unimplemented opcode");
}

TEST(CpuGuards, OverlappingProgramsRejected)
{
    Machine m;
    Assembler a(0x8000);
    a.nop().nop();
    m.cpu.loadProgram(a.finish());
    Assembler b(0x8004);
    b.nop();
    EXPECT_DEATH(m.cpu.loadProgram(b.finish()), "overlap");
}
