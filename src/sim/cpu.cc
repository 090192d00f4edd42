#include "sim/cpu.hh"

#include <algorithm>

#include "support/logging.hh"
#include "telemetry/registry.hh"

namespace pift::sim
{

namespace
{

/** CPU front-end instruments, resolved once (see DESIGN.md §9). */
struct CpuTel
{
    telemetry::Counter &decode_hits =
        telemetry::counter("sim.cpu.decode_cache_hits");
    telemetry::Counter &decode_misses =
        telemetry::counter("sim.cpu.decode_cache_misses");
};

CpuTel &
ctel()
{
    static CpuTel t;
    return t;
}

/** Default decoded-instruction cache capacity (slots). */
constexpr size_t default_decode_slots = 4096;

} // anonymous namespace

Cpu::Cpu(mem::Memory &memory, EventHub &hub_)
    : mem_ref(memory), hub(hub_)
{
    setDecodeCache(default_decode_slots);
    isa::Assembler stub(halt_stub_addr);
    stub.halt();
    loadProgram(stub.finish());
}

Cpu::~Cpu()
{
    if (tel_decode_hits)
        ctel().decode_hits.inc(tel_decode_hits);
    if (tel_decode_misses)
        ctel().decode_misses.inc(tel_decode_misses);
}

void
Cpu::setDecodeCache(size_t slots)
{
    if (slots == 0) {
        dcache.clear();
        dcache_mask = 0;
        return;
    }
    size_t cap = 1;
    while (cap < slots)
        cap <<= 1;
    dcache.assign(cap, DecodeSlot{});
    dcache_mask = static_cast<Addr>(cap - 1);
}

void
Cpu::loadProgram(isa::Program prog)
{
    if (prog.insts.empty())
        pift_panic("loading an empty program at 0x%x", prog.base);
    // Reject overlap with any mapped region.
    auto next = programs.lower_bound(prog.base);
    if (next != programs.end() && next->second.base < prog.end())
        pift_panic("program at 0x%x overlaps region at 0x%x", prog.base,
                   next->second.base);
    if (next != programs.begin()) {
        auto prev = std::prev(next);
        if (prev->second.end() > prog.base)
            pift_panic("program at 0x%x overlaps region at 0x%x",
                       prog.base, prev->second.base);
    }
    Addr base = prog.base;
    programs.emplace(base, std::move(prog));
    // The pc→instruction mapping changed: drop every cached decode.
    std::fill(dcache.begin(), dcache.end(), DecodeSlot{});
}

const isa::Inst *
Cpu::instAt(Addr addr) const
{
    auto it = programs.upper_bound(addr);
    if (it == programs.begin())
        return nullptr;
    const isa::Program &prog = std::prev(it)->second;
    if (!prog.contains(addr))
        return nullptr;
    return &prog.insts[(addr - prog.base) / isa::inst_bytes];
}

const isa::Inst *
Cpu::fetch(Addr addr)
{
    if (dcache_mask) {
        DecodeSlot &slot = dcache[(addr >> 2) & dcache_mask];
        if (slot.inst && slot.pc == addr) {
            if constexpr (telemetry::compiledIn())
                ++tel_decode_hits;
            return slot.inst;
        }
        const isa::Inst *inst = instAt(addr);
        if (inst) {
            slot.pc = addr;
            slot.inst = inst;
        }
        if constexpr (telemetry::compiledIn())
            ++tel_decode_misses;
        return inst;
    }
    return instAt(addr);
}

uint32_t
Cpu::reg(RegIndex r) const
{
    pift_assert(r < 16, "register index out of range");
    return regs[r];
}

void
Cpu::setReg(RegIndex r, uint32_t value)
{
    pift_assert(r < 16, "register index out of range");
    regs[r] = value;
}

SeqNum
Cpu::localCount(ProcId pid) const
{
    auto it = local_counts.find(pid);
    return it == local_counts.end() ? 0 : it->second;
}

bool
Cpu::condPasses(isa::Cond cond) const
{
    using isa::Cond;
    switch (cond) {
      case Cond::Al: return true;
      case Cond::Eq: return flag_z;
      case Cond::Ne: return !flag_z;
      case Cond::Cs: return flag_c;
      case Cond::Cc: return !flag_c;
      case Cond::Mi: return flag_n;
      case Cond::Pl: return !flag_n;
      case Cond::Ge: return flag_n == flag_v;
      case Cond::Lt: return flag_n != flag_v;
      case Cond::Gt: return !flag_z && flag_n == flag_v;
      case Cond::Le: return flag_z || flag_n != flag_v;
    }
    return true;
}

uint32_t
Cpu::readOperand2(const isa::Operand2 &op2) const
{
    if (op2.is_imm)
        return static_cast<uint32_t>(op2.imm);
    uint32_t v = regs[op2.reg];
    switch (op2.shift) {
      case isa::ShiftKind::Lsl:
        return op2.shift_amount >= 32 ? 0 : v << op2.shift_amount;
      case isa::ShiftKind::Lsr:
        return op2.shift_amount >= 32 ? 0 : v >> op2.shift_amount;
      case isa::ShiftKind::Asr:
        return static_cast<uint32_t>(
            static_cast<int32_t>(v) >>
            (op2.shift_amount >= 32 ? 31 : op2.shift_amount));
      case isa::ShiftKind::None:
        return v;
    }
    return v;
}

void
Cpu::setNZ(uint32_t result)
{
    flag_n = (result >> 31) & 1;
    flag_z = result == 0;
}

namespace
{

/** Effective address of a memory operand, applying writeback. */
Addr
effectiveAddress(std::array<uint32_t, 16> &regs,
                 const isa::MemOperand &mem)
{
    uint32_t base = regs[mem.base];
    if (mem.index != no_reg)
        return base + (regs[mem.index] << mem.index_shift);
    switch (mem.writeback) {
      case isa::WriteBack::None:
        return base + static_cast<uint32_t>(mem.offset);
      case isa::WriteBack::Pre: {
        Addr ea = base + static_cast<uint32_t>(mem.offset);
        regs[mem.base] = ea;
        return ea;
      }
      case isa::WriteBack::Post:
        regs[mem.base] = base + static_cast<uint32_t>(mem.offset);
        return base;
    }
    return base;
}

} // anonymous namespace

void
Cpu::execute(const isa::Inst &inst, TraceRecord &rec)
{
    using isa::Op;

    auto alu_result = [&](uint32_t result, bool write_flags) {
        if (inst.rd == reg_pc) {
            regs[reg_pc] = result;
        } else if (inst.rd != no_reg) {
            regs[inst.rd] = result;
            if (write_flags)
                setNZ(result);
        }
        rec.dst = inst.rd;
    };

    auto add_flags = [&](uint32_t a, uint32_t b) {
        uint32_t r = a + b;
        flag_c = r < a;
        flag_v = ((~(a ^ b) & (a ^ r)) >> 31) & 1;
        setNZ(r);
        return r;
    };
    auto sub_flags = [&](uint32_t a, uint32_t b) {
        uint32_t r = a - b;
        flag_c = a >= b;
        flag_v = (((a ^ b) & (a ^ r)) >> 31) & 1;
        setNZ(r);
        return r;
    };

    auto src_alu = [&]() {
        uint8_t n = 0;
        if (inst.rn != no_reg)
            rec.src[n++] = inst.rn;
        if (!inst.op2.is_imm && inst.op2.reg != no_reg)
            rec.src[n++] = inst.op2.reg;
    };

    switch (inst.op) {
      case Op::Nop:
        break;

      case Op::Mov:
        src_alu();
        alu_result(readOperand2(inst.op2), inst.set_flags);
        break;
      case Op::Mvn:
        src_alu();
        alu_result(~readOperand2(inst.op2), inst.set_flags);
        break;
      case Op::Add: {
        src_alu();
        uint32_t a = regs[inst.rn], b = readOperand2(inst.op2);
        alu_result(inst.set_flags ? add_flags(a, b) : a + b, false);
        break;
      }
      case Op::Sub: {
        src_alu();
        uint32_t a = regs[inst.rn], b = readOperand2(inst.op2);
        alu_result(inst.set_flags ? sub_flags(a, b) : a - b, false);
        break;
      }
      case Op::Rsb: {
        src_alu();
        uint32_t a = regs[inst.rn], b = readOperand2(inst.op2);
        alu_result(b - a, inst.set_flags);
        break;
      }
      case Op::Mul: {
        src_alu();
        alu_result(regs[inst.rn] * readOperand2(inst.op2),
                   inst.set_flags);
        break;
      }
      case Op::And:
        src_alu();
        alu_result(regs[inst.rn] & readOperand2(inst.op2),
                   inst.set_flags);
        break;
      case Op::Orr:
        src_alu();
        alu_result(regs[inst.rn] | readOperand2(inst.op2),
                   inst.set_flags);
        break;
      case Op::Eor:
        src_alu();
        alu_result(regs[inst.rn] ^ readOperand2(inst.op2),
                   inst.set_flags);
        break;
      case Op::Bic:
        src_alu();
        alu_result(regs[inst.rn] & ~readOperand2(inst.op2),
                   inst.set_flags);
        break;
      case Op::Lsl: {
        src_alu();
        uint32_t sh = readOperand2(inst.op2) & 0xff;
        alu_result(sh >= 32 ? 0 : regs[inst.rn] << sh, inst.set_flags);
        break;
      }
      case Op::Lsr: {
        src_alu();
        uint32_t sh = readOperand2(inst.op2) & 0xff;
        alu_result(sh >= 32 ? 0 : regs[inst.rn] >> sh, inst.set_flags);
        break;
      }
      case Op::Asr: {
        src_alu();
        uint32_t sh = readOperand2(inst.op2) & 0xff;
        alu_result(static_cast<uint32_t>(
                       static_cast<int32_t>(regs[inst.rn]) >>
                       (sh >= 32 ? 31 : sh)),
                   inst.set_flags);
        break;
      }

      case Op::Ubfx: {
        rec.src[0] = inst.rn;
        uint32_t mask = inst.bit_width >= 32
            ? 0xffffffffu : ((1u << inst.bit_width) - 1);
        alu_result((regs[inst.rn] >> inst.bit_lsb) & mask, false);
        break;
      }
      case Op::Sbfx: {
        rec.src[0] = inst.rn;
        uint32_t mask = inst.bit_width >= 32
            ? 0xffffffffu : ((1u << inst.bit_width) - 1);
        uint32_t v = (regs[inst.rn] >> inst.bit_lsb) & mask;
        uint32_t sign = 1u << (inst.bit_width - 1);
        alu_result((v ^ sign) - sign, false);
        break;
      }
      case Op::Sxth:
        rec.src[0] = inst.rn;
        alu_result(static_cast<uint32_t>(static_cast<int32_t>(
                       static_cast<int16_t>(regs[inst.rn] & 0xffff))),
                   false);
        break;
      case Op::Uxth:
        rec.src[0] = inst.rn;
        alu_result(regs[inst.rn] & 0xffff, false);
        break;
      case Op::Uxtb:
        rec.src[0] = inst.rn;
        alu_result(regs[inst.rn] & 0xff, false);
        break;

      case Op::Cmp:
        src_alu();
        sub_flags(regs[inst.rn], readOperand2(inst.op2));
        break;
      case Op::Cmn:
        src_alu();
        add_flags(regs[inst.rn], readOperand2(inst.op2));
        break;
      case Op::Tst:
        src_alu();
        setNZ(regs[inst.rn] & readOperand2(inst.op2));
        break;

      case Op::B:
        regs[reg_pc] = inst.target;
        break;
      case Op::Bl:
        regs[reg_lr] = rec.pc + isa::inst_bytes;
        regs[reg_pc] = inst.target;
        break;
      case Op::Bx:
        rec.src[0] = inst.op2.reg;
        regs[reg_pc] = regs[inst.op2.reg];
        break;

      case Op::Ldrh:
      case Op::Ldrb:
      case Op::Ldr: {
        Addr ea = effectiveAddress(regs, inst.mem);
        unsigned bytes = isa::transferBytes(inst.op);
        pift_assert(inst.rd != reg_pc, "load to pc unsupported");
        regs[inst.rd] = static_cast<uint32_t>(mem_ref.read(ea, bytes));
        rec.dst = inst.rd;
        rec.mem_kind = MemKind::Load;
        rec.mem_start = ea;
        rec.mem_end = ea + bytes - 1;
        break;
      }
      case Op::Ldrd: {
        Addr ea = effectiveAddress(regs, inst.mem);
        pift_assert(inst.rd + 1 < 15, "ldrd register pair out of range");
        regs[inst.rd] = mem_ref.read32(ea);
        regs[inst.rd + 1] = mem_ref.read32(ea + 4);
        rec.dst = inst.rd;
        rec.dst2 = inst.rd + 1;
        rec.mem_kind = MemKind::Load;
        rec.mem_start = ea;
        rec.mem_end = ea + 7;
        break;
      }
      case Op::Strh:
      case Op::Strb:
      case Op::Str: {
        Addr ea = effectiveAddress(regs, inst.mem);
        unsigned bytes = isa::transferBytes(inst.op);
        mem_ref.write(ea, regs[inst.rd], bytes);
        rec.src[0] = inst.rd;
        rec.mem_kind = MemKind::Store;
        rec.mem_start = ea;
        rec.mem_end = ea + bytes - 1;
        break;
      }
      case Op::Strd: {
        Addr ea = effectiveAddress(regs, inst.mem);
        pift_assert(inst.rd + 1 < 15, "strd register pair out of range");
        mem_ref.write32(ea, regs[inst.rd]);
        mem_ref.write32(ea + 4, regs[inst.rd + 1]);
        rec.src[0] = inst.rd;
        rec.src[1] = inst.rd + 1;
        rec.mem_kind = MemKind::Store;
        rec.mem_start = ea;
        rec.mem_end = ea + 7;
        break;
      }
      case Op::Ldm: {
        pift_assert(inst.reg_count > 0 &&
                    inst.rd + inst.reg_count <= 15,
                    "ldm register list out of range");
        Addr base = regs[inst.rn];
        for (uint8_t i = 0; i < inst.reg_count; ++i)
            regs[inst.rd + i] = mem_ref.read32(base + 4u * i);
        regs[inst.rn] = base + 4u * inst.reg_count;
        rec.dst = inst.rd;
        rec.dst2 = inst.rd + inst.reg_count - 1;
        rec.reg_count = inst.reg_count;
        rec.mem_kind = MemKind::Load;
        rec.mem_start = base;
        rec.mem_end = base + 4u * inst.reg_count - 1;
        break;
      }
      case Op::Stm: {
        pift_assert(inst.reg_count > 0 &&
                    inst.rd + inst.reg_count <= 15,
                    "stm register list out of range");
        Addr base = regs[inst.rn];
        for (uint8_t i = 0; i < inst.reg_count; ++i)
            mem_ref.write32(base + 4u * i, regs[inst.rd + i]);
        regs[inst.rn] = base + 4u * inst.reg_count;
        rec.src[0] = inst.rd;
        rec.reg_count = inst.reg_count;
        rec.mem_kind = MemKind::Store;
        rec.mem_start = base;
        rec.mem_end = base + 4u * inst.reg_count - 1;
        break;
      }

      case Op::Svc:
        // Published first; the trap handler runs in run().
        rec.aux = inst.svc_num;
        break;

      case Op::Halt:
        halted = true;
        break;

      default:
        pift_panic("unimplemented opcode %d",
                   static_cast<int>(inst.op));
    }
}

void
Cpu::publish(TraceRecord &rec)
{
    rec.seq = nretired++;
    rec.pid = cur_pid;
    rec.local_seq = local_counts[cur_pid]++;
    hub.publish(rec);
}

uint64_t
Cpu::run(uint64_t max_steps)
{
    halted = false;
    uint64_t steps = 0;
    while (!halted) {
        if (steps >= max_steps)
            pift_panic("instruction budget exhausted at pc 0x%x",
                       regs[reg_pc]);

        const isa::Inst *inst = fetch(regs[reg_pc]);
        if (!inst)
            pift_panic("fetch from unmapped pc 0x%x", regs[reg_pc]);

        TraceRecord rec;
        rec.pc = regs[reg_pc];
        rec.op = inst->op;
        regs[reg_pc] = rec.pc + isa::inst_bytes;

        bool taken = condPasses(inst->cond);
        if (taken)
            execute(*inst, rec);
        ++steps;

        if (inst->op == isa::Op::Halt) {
            // Simulator-only; never published.
            if (!taken)
                halted = true;
            continue;
        }

        publish(rec);

        if (taken && inst->op == isa::Op::Svc) {
            if (!svc)
                pift_panic("svc #%u with no handler installed",
                           inst->svc_num);
            svc(*this, inst->svc_num);
        }
    }
    // Reset so an enclosing run() (re-entrant execution from an Svc
    // handler) is not terminated by this loop's halt.
    halted = false;
    return steps;
}

uint64_t
Cpu::call(Addr entry, uint64_t max_steps)
{
    uint32_t saved_pc = regs[reg_pc];
    uint32_t saved_lr = regs[reg_lr];
    regs[reg_lr] = halt_stub_addr;
    regs[reg_pc] = entry;
    uint64_t n = run(max_steps);
    regs[reg_pc] = saved_pc;
    regs[reg_lr] = saved_lr;
    return n;
}

} // namespace pift::sim
