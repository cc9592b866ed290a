/**
 * @file
 * Single-threaded reference executor.
 *
 * Runs a Kernel one thread at a time, sequentially, with no timing, no
 * warps, and no SIMT stack -- just plain per-thread control flow. It is
 * the reference of two tests, each comparing the simulated GPU's final
 * memory image with this executor's:
 *
 *  - tests/test_differential.cc: race-free kernels (each thread touches
 *    disjoint data), pinning down the PDOM reconvergence machinery;
 *  - tests/test_check.cc: a kernel of commutative transactional
 *    updates, whose final image does not depend on the serialization
 *    order the GPU picked.
 *
 * Kernels whose result depends on that order (blind writes, the hash
 * tables) may legitimately end in a different image, so this is a test
 * oracle only, never a runtime check.
 */

#ifndef GETM_CHECK_REFERENCE_EXEC_HH
#define GETM_CHECK_REFERENCE_EXEC_HH

#include <array>
#include <cstdint>

#include "isa/kernel.hh"
#include "mem/backing_store.hh"

namespace getm {
namespace check {

/** Execute @p kernel for threads [0, n) sequentially against @p mem. */
inline void
referenceRun(const Kernel &kernel, std::uint64_t n_threads,
             BackingStore &mem)
{
    for (std::uint64_t tid = 0; tid < n_threads; ++tid) {
        std::array<std::int64_t, numRegs> regs{};
        Pc pc = 0;
        for (std::uint64_t steps = 0; steps < 1'000'000; ++steps) {
            const Instruction &inst = kernel.at(pc);
            auto operand_b = [&]() {
                return inst.bImm ? inst.imm : regs[inst.rb];
            };
            const std::uint64_t ua =
                static_cast<std::uint64_t>(regs[inst.ra]);
            // Add, Sub and Mul wrap modulo 2^64, as SimtCore's do.
            auto wrap = [](std::uint64_t value) {
                return static_cast<std::int64_t>(value);
            };
            switch (inst.op) {
              case Opcode::Add:
                regs[inst.rd] =
                    wrap(ua + static_cast<std::uint64_t>(operand_b()));
                break;
              case Opcode::Sub:
                regs[inst.rd] =
                    wrap(ua - static_cast<std::uint64_t>(operand_b()));
                break;
              case Opcode::Mul:
                regs[inst.rd] =
                    wrap(ua * static_cast<std::uint64_t>(operand_b()));
                break;
              case Opcode::DivU: {
                const auto ub =
                    static_cast<std::uint64_t>(operand_b());
                regs[inst.rd] =
                    ub ? static_cast<std::int64_t>(ua / ub) : 0;
                break;
              }
              case Opcode::RemU: {
                const auto ub =
                    static_cast<std::uint64_t>(operand_b());
                regs[inst.rd] =
                    ub ? static_cast<std::int64_t>(ua % ub) : 0;
                break;
              }
              case Opcode::MinS:
                regs[inst.rd] = std::min(regs[inst.ra], operand_b());
                break;
              case Opcode::MaxS:
                regs[inst.rd] = std::max(regs[inst.ra], operand_b());
                break;
              case Opcode::And:
                regs[inst.rd] = regs[inst.ra] & operand_b();
                break;
              case Opcode::Or:
                regs[inst.rd] = regs[inst.ra] | operand_b();
                break;
              case Opcode::Xor:
                regs[inst.rd] = regs[inst.ra] ^ operand_b();
                break;
              case Opcode::Shl:
                regs[inst.rd] = static_cast<std::int64_t>(
                    ua << (operand_b() & 63));
                break;
              case Opcode::ShrL:
                regs[inst.rd] = static_cast<std::int64_t>(
                    ua >> (operand_b() & 63));
                break;
              case Opcode::ShrA:
                regs[inst.rd] = regs[inst.ra] >> (operand_b() & 63);
                break;
              case Opcode::SetLtS:
                regs[inst.rd] = regs[inst.ra] < operand_b();
                break;
              case Opcode::SetLtU:
                regs[inst.rd] =
                    ua < static_cast<std::uint64_t>(operand_b());
                break;
              case Opcode::SetEq:
                regs[inst.rd] = regs[inst.ra] == operand_b();
                break;
              case Opcode::SetNe:
                regs[inst.rd] = regs[inst.ra] != operand_b();
                break;
              case Opcode::SetLeS:
                regs[inst.rd] = regs[inst.ra] <= operand_b();
                break;
              case Opcode::LoadImm:
                regs[inst.rd] = inst.imm;
                break;
              case Opcode::ReadSpecial:
                switch (static_cast<SpecialReg>(inst.imm)) {
                  case SpecialReg::ThreadId:
                    regs[inst.rd] = static_cast<std::int64_t>(tid);
                    break;
                  case SpecialReg::LaneId:
                    regs[inst.rd] =
                        static_cast<std::int64_t>(tid % warpSize);
                    break;
                  case SpecialReg::WarpId:
                    regs[inst.rd] =
                        static_cast<std::int64_t>(tid / warpSize);
                    break;
                  case SpecialReg::NumThreads:
                    regs[inst.rd] =
                        static_cast<std::int64_t>(n_threads);
                    break;
                }
                break;
              case Opcode::Hash:
                regs[inst.rd] = static_cast<std::int64_t>(hashMix(
                    ua, static_cast<std::uint64_t>(operand_b())));
                break;
              case Opcode::BranchEqz:
                if (regs[inst.ra] == 0) {
                    pc = inst.target;
                    continue;
                }
                break;
              case Opcode::BranchNez:
                if (regs[inst.ra] != 0) {
                    pc = inst.target;
                    continue;
                }
                break;
              case Opcode::Jump:
                pc = inst.target;
                continue;
              case Opcode::Load:
                regs[inst.rd] = static_cast<std::int32_t>(mem.read(
                    static_cast<Addr>(regs[inst.ra] + inst.imm)));
                break;
              case Opcode::Store:
                mem.write(static_cast<Addr>(regs[inst.ra] + inst.imm),
                          static_cast<std::uint32_t>(regs[inst.rb]));
                break;
              case Opcode::AtomCas:
                regs[inst.rd] = static_cast<std::int32_t>(mem.atomicCas(
                    static_cast<Addr>(regs[inst.ra]),
                    static_cast<std::uint32_t>(regs[inst.rb]),
                    static_cast<std::uint32_t>(regs[inst.rc])));
                break;
              case Opcode::AtomExch:
                regs[inst.rd] = static_cast<std::int32_t>(mem.atomicExch(
                    static_cast<Addr>(regs[inst.ra]),
                    static_cast<std::uint32_t>(regs[inst.rb])));
                break;
              case Opcode::AtomAdd:
                regs[inst.rd] = static_cast<std::int32_t>(mem.atomicAdd(
                    static_cast<Addr>(regs[inst.ra]),
                    static_cast<std::uint32_t>(regs[inst.rb])));
                break;
              case Opcode::TxBegin:
              case Opcode::TxCommit:
              case Opcode::Fence:
              case Opcode::Nop:
                break; // sequential execution: transactions are trivial
              case Opcode::Exit:
                steps = ~0ull - 1; // terminate the thread
                break;
            }
            if (inst.op == Opcode::Exit)
                break;
            ++pc;
        }
    }
}

} // namespace check
} // namespace getm

#endif // GETM_CHECK_REFERENCE_EXEC_HH
