#include "mem/dram_model.hh"

#include <algorithm>

#include "common/log.hh"

namespace getm {

DramModel::DramModel(std::string name_, const Config &config)
    : cfg(config), banks(std::max(1u, config.numBanks)),
      statSet(std::move(name_)),
      stRequests(statSet.addCounter("requests")),
      stRowHits(statSet.addCounter("row_hits")),
      stRowMisses(statSet.addCounter("row_misses")),
      stQueueDelay(statSet.addAverage("queue_delay"))
{
    if (cfg.rowBytes == 0)
        fatal("DRAM row size must be non-zero");
}

Cycle
DramModel::enqueue(Cycle now, Addr addr)
{
    // Service is serialized per bank at cfg.serviceInterval; queueing
    // emerges from pushing the bank's next service point out (explicit
    // queue-depth refusal is unnecessary in an analytic model).
    const Addr row = addr / cfg.rowBytes;
    Bank &bank = banks[row % banks.size()];

    const Cycle start = now > bank.nextService ? now : bank.nextService;
    bank.nextService = start + cfg.serviceInterval;

    const bool row_hit = bank.openRow == row;
    bank.openRow = row;

    stRequests.add();
    (row_hit ? stRowHits : stRowMisses).add();
    stQueueDelay.addSample(static_cast<double>(start - now));
    return start + (row_hit ? cfg.rowHitLatency : cfg.accessLatency);
}

} // namespace getm
