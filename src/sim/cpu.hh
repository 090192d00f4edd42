/**
 * @file
 * The simulated ARM-like CPU.
 *
 * An in-order, one-instruction-per-step functional model. Every
 * retired instruction is published to the EventHub as a TraceRecord —
 * that stream is the PIFT front-end tap (Figure 5 of the paper: the
 * front-end logic "tracks the instructions executed by the CPU's
 * instruction unit and generates events upon observing memory access
 * instructions"; we publish all retired instructions so the
 * per-process instruction counter is exact and the full-DIFT baseline
 * can consume the same stream).
 *
 * The Svc instruction traps to a registered handler (the Dalvik
 * runtime bridge); the handler may mutate machine state and may run
 * nested subroutines via call().
 */

#ifndef PIFT_SIM_CPU_HH
#define PIFT_SIM_CPU_HH

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "isa/assembler.hh"
#include "isa/inst.hh"
#include "mem/memory.hh"
#include "sim/trace.hh"
#include "support/types.hh"

namespace pift::sim
{

/** Well-known register assignments. */
inline constexpr RegIndex reg_sp = 13;
inline constexpr RegIndex reg_lr = 14;
inline constexpr RegIndex reg_pc = 15;

/** Address of the one-instruction halt stub used by call(). */
inline constexpr Addr halt_stub_addr = 0x0000'0f00;

/** Functional ARM-like CPU publishing a retired-instruction stream. */
class Cpu
{
  public:
    /** Called when the CPU retires an Svc instruction. */
    using SvcHandler = std::function<void(Cpu &, uint32_t)>;

    /**
     * @param memory backing memory (shared with the runtime)
     * @param hub event stream the CPU publishes to
     */
    Cpu(mem::Memory &memory, EventHub &hub);
    ~Cpu();

    /** Map a program into the code space; regions must not overlap. */
    void loadProgram(isa::Program prog);

    /**
     * Resize the decoded-instruction cache (DESIGN.md §12): a direct-
     * mapped pc-tagged table in front of the program-map walk, so the
     * fetch of a hot pc is one array probe instead of a tree descent.
     * @p slots is rounded up to a power of two; 0 disables the cache
     * (every fetch resolves through the program map — the reference
     * behaviour the decode-cache differential test compares against).
     * The cache is flushed by this call and by every loadProgram().
     */
    void setDecodeCache(size_t slots);

    /** Decoded-instruction cache capacity in slots (0 = disabled). */
    size_t decodeCacheSlots() const { return dcache.size(); }

    /** Current value of register @p r (reading pc gives pc+4). */
    uint32_t reg(RegIndex r) const;

    /** Set register @p r. Setting pc redirects execution. */
    void setReg(RegIndex r, uint32_t value);

    Addr pc() const { return regs[reg_pc]; }
    void setPc(Addr a) { regs[reg_pc] = a; }

    /** Install the Svc trap handler (the runtime bridge). */
    void setSvcHandler(SvcHandler handler) { svc = std::move(handler); }

    /** Switch the process-specific id (models a TTBR/PID change). */
    void setPid(ProcId pid) { cur_pid = pid; }
    ProcId pid() const { return cur_pid; }

    /** Total instructions retired on this CPU. */
    SeqNum retired() const { return nretired; }

    /** Per-process instruction counter (PIFT front-end state). */
    SeqNum localCount(ProcId pid) const;

    /**
     * Execute from the current pc until a Halt retires or @p max_steps
     * instructions have run (the latter panics: runaway program).
     *
     * @return instructions retired by this invocation
     */
    uint64_t run(uint64_t max_steps = 500'000'000ull);

    /**
     * Call a subroutine: lr is pointed at a halt stub so a final
     * `bx lr` stops execution; pc/lr are restored afterwards. Safe to
     * use re-entrantly from inside an Svc handler.
     *
     * @param entry subroutine address
     * @param max_steps instruction budget
     * @return instructions retired by the subroutine
     */
    uint64_t call(Addr entry, uint64_t max_steps = 500'000'000ull);

    /** Memory this CPU loads from and stores to. */
    mem::Memory &memory() { return mem_ref; }

    /** The instruction mapped at @p addr, or nullptr. */
    const isa::Inst *instAt(Addr addr) const;

  private:
    bool condPasses(isa::Cond cond) const;
    uint32_t readOperand2(const isa::Operand2 &op2) const;
    void setNZ(uint32_t result);
    void execute(const isa::Inst &inst, TraceRecord &rec);
    void publish(TraceRecord &rec);
    const isa::Inst *fetch(Addr addr);

    /** One decoded-instruction cache slot (inst == nullptr: empty). */
    struct DecodeSlot
    {
        Addr pc = 0;
        const isa::Inst *inst = nullptr;
    };

    mem::Memory &mem_ref;
    EventHub &hub;

    std::array<uint32_t, 16> regs{};
    bool flag_n = false, flag_z = false, flag_c = false, flag_v = false;

    // Code map: programs keyed by base address for containment lookup.
    std::map<Addr, isa::Program> programs;

    SvcHandler svc;
    ProcId cur_pid = 1;
    SeqNum nretired = 0;
    std::unordered_map<ProcId, SeqNum> local_counts;
    bool halted = false;

    // Decoded-instruction cache. Program regions are never unloaded
    // or overlapped (loadProgram rejects overlap) and map nodes are
    // stable, so cached Inst pointers cannot dangle; the flush on
    // loadProgram guards the pc→instruction mapping itself.
    std::vector<DecodeSlot> dcache;
    Addr dcache_mask = 0; //!< slot index mask (slots - 1)

    // Hot-path telemetry tallies, published at destruction.
    uint64_t tel_decode_hits = 0;
    uint64_t tel_decode_misses = 0;
};

} // namespace pift::sim

#endif // PIFT_SIM_CPU_HH
