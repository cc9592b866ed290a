/**
 * @file
 * Host-speed yardstick.
 *
 * A fixed piece of host work that shares no code with the simulator:
 * dependent reads through tables of 4 MiB, 1 MiB and 256 KiB (last-level
 * cache, L2 and L1/L2 latency), hash-map churn (allocation, hashing,
 * branches) and a sort of random keys (mispredicted branches). Its inputs
 * never change, so on an idle, steady host it takes the same time every
 * run. On a shared host its time moves with the
 * host's speed at that moment, and the benchmark divides host times by
 * it (see README.md, "Host speed").
 */

#ifndef GETM_PERFBENCH_YARDSTICK_HH
#define GETM_PERFBENCH_YARDSTICK_HH

namespace getm::perfbench {

/** Host seconds one yardstick run took. The first call also builds the
 *  tables (outside the timed part). */
double yardstickSeconds();

/** yardstickSeconds() on the reference host: a 4-vCPU Xeon VM at rest. */
constexpr double yardstickNominalSec = 0.042;

} // namespace getm::perfbench

#endif // GETM_PERFBENCH_YARDSTICK_HH
