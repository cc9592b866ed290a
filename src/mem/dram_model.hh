/**
 * @file
 * Per-partition DRAM channel timing model.
 *
 * GETM's behaviour is dominated by LLC-side structures, so DRAM appears
 * as a banked backing latency: requests hash to banks, each bank
 * serializes service, and consecutive accesses to the same DRAM row hit
 * the open row buffer (FR-FCFS reordering is abstracted into the
 * row-hit discount; Table II's GDDR5 organization motivates the
 * defaults).
 */

#ifndef GETM_MEM_DRAM_MODEL_HH
#define GETM_MEM_DRAM_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace getm {

/** Timing-only banked DRAM channel. */
class DramModel
{
  public:
    struct Config
    {
        /** Cycles from service start to data return on a row miss. */
        Cycle accessLatency = 200;
        /** Cycles from service start to data return on a row hit. */
        Cycle rowHitLatency = 120;
        /** Minimum cycles between services on the same bank. */
        Cycle serviceInterval = 4;
        /** Banks per channel (GDDR5-like). */
        unsigned numBanks = 8;
        /** Bytes per DRAM row (row-buffer reach). */
        unsigned rowBytes = 2048;
        /** Maximum queued requests (Table II: 32); bounds run-ahead. */
        unsigned queueDepth = 32;
    };

    DramModel(std::string name_, const Config &config);

    /**
     * Enqueue a line request for @p addr at time @p now.
     * @return the cycle at which the data will be available.
     */
    Cycle enqueue(Cycle now, Addr addr = 0);

    StatSet &stats() { return statSet; }

    /** Checkpoint hook: bank service clocks + open rows + stats. */
    template <class Ar>
    void
    ckpt(Ar &ar)
    {
        ar(banks, statSet);
    }

  private:
    struct Bank
    {
        Cycle nextService = 0;
        Addr openRow = invalidAddr;

        template <class Ar> void ckpt(Ar &ar) { ar(nextService, openRow); }
    };

    Config cfg;
    std::vector<Bank> banks;
    StatSet statSet;

    // Hot-path stat handles: one add/sample per request.
    StatSet::Counter &stRequests;
    StatSet::Counter &stRowHits;
    StatSet::Counter &stRowMisses;
    StatSet::Average &stQueueDelay;
};

} // namespace getm

#endif // GETM_MEM_DRAM_MODEL_HH
