/**
 * @file
 * The register-based micro-ISA executed by the simulated SIMT cores.
 *
 * This replaces GPGPU-Sim's PTX front end (see DESIGN.md, substitutions).
 * The ISA is deliberately small but covers everything the paper's
 * workloads need: integer ALU ops, predicated PDOM branches with explicit
 * reconvergence points, global loads/stores (with an L1-bypass flag for
 * volatile data in the lock-based variants), LLC-side atomics, and the
 * txbegin/txcommit transaction delimiters of Fig. 1.
 */

#ifndef GETM_ISA_INSTRUCTION_HH
#define GETM_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace getm {

/** Number of 64-bit registers per thread. */
constexpr unsigned numRegs = 64;

/** Program counter type (index into the kernel's instruction vector). */
using Pc = std::uint32_t;

/** Opcodes of the micro-ISA. */
enum class Opcode : std::uint8_t
{
    // ALU (rd = ra OP rb-or-imm)
    Add, Sub, Mul, DivU, RemU,
    MinS, MaxS,
    And, Or, Xor, Shl, ShrL, ShrA,
    SetLtS, SetLtU, SetEq, SetNe, SetLeS,
    // rd = imm (64-bit)
    LoadImm,
    // rd = special value (SpecialReg in imm)
    ReadSpecial,
    // rd = mix(ra, rb-or-imm): one-cycle hardware hash
    Hash,
    // Control flow (target/rpc fields)
    BranchEqz, BranchNez, Jump,
    // Memory: LD rd, [ra + imm] ; ST [ra + imm], rb
    Load, Store,
    // Atomics (execute at the LLC partition, bypass L1):
    // CAS: rd = old, [ra], compare rb, swap rc
    // Exch/Add: rd = old, [ra], operand rb
    AtomCas, AtomExch, AtomAdd,
    // Transactions
    TxBegin, TxCommit,
    // Memory ordering: wait until all outstanding stores are acked
    Fence,
    // Misc
    Nop, Exit,
};

/** Values readable via ReadSpecial. */
enum class SpecialReg : std::uint8_t
{
    ThreadId,   ///< Global thread id across the whole launch.
    LaneId,     ///< Lane index within the warp.
    WarpId,     ///< Global warp id across the whole launch.
    NumThreads, ///< Total threads in the launch.
};

/** Flags modifying memory instructions. */
enum MemFlags : std::uint8_t
{
    MemNone = 0,
    /**
     * Bypass the L1 (CUDA "volatile"). Required for mutable shared data
     * in the fine-grained-lock variants, since the simulated GPU -- like
     * real ones -- has no L1 coherence.
     */
    MemBypassL1 = 1,
};

/** A decoded instruction. Fixed-width fields keep decode trivial. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    std::uint8_t rd = 0; ///< Destination register.
    std::uint8_t ra = 0; ///< First source register.
    std::uint8_t rb = 0; ///< Second source register.
    std::uint8_t rc = 0; ///< Third source register (AtomCas swap).
    /** True if rb is replaced by imm for ALU/Hash ops. */
    bool bImm = false;
    std::uint8_t memFlags = MemNone;
    std::int64_t imm = 0; ///< Immediate / address offset / special-reg id.
    Pc target = 0;        ///< Branch/jump target.
    Pc rpc = 0;           ///< Reconvergence PC for divergent branches.

    bool
    isAtomic() const
    {
        return op == Opcode::AtomCas || op == Opcode::AtomExch ||
               op == Opcode::AtomAdd;
    }

    /** Disassemble for debugging and tests. */
    std::string toString() const;
};

/**
 * Functional hash used by the Hash instruction (and by workload setup so
 * host-side and device-side hashing agree). splitmix64 finalizer over the
 * two operands.
 */
inline std::uint64_t
hashMix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace getm

#endif // GETM_ISA_INSTRUCTION_HH
