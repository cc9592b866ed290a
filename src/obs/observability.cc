#include "obs/observability.hh"

#include <algorithm>

namespace getm {

void
Observability::abortEvent(AbortReason reason, Addr addr,
                          PartitionId partition, unsigned lanes)
{
    abortLanes[static_cast<unsigned>(reason)] += lanes;
    prof.record(reason, granuleOf(addr), partition, lanes);
}

void
Observability::conflictEvent(AbortReason reason, Addr addr,
                             PartitionId partition)
{
    prof.record(reason, granuleOf(addr), partition);
}

void
Observability::stallEvent(AbortReason reason, Addr addr,
                          PartitionId partition, unsigned depth)
{
    stalls[static_cast<unsigned>(reason)] += 1;
    stallCurrent += 1;
    stallPeak = std::max(stallPeak, stallCurrent);
    depthSum += depth;
    depthCount += 1;
    prof.record(reason, granuleOf(addr), partition);
    prof.recordStallDepth(granuleOf(addr), partition, depth);
}

void
Observability::stallRelease()
{
    if (stallCurrent)
        stallCurrent -= 1;
}

ObsReport
Observability::report(std::size_t maxHotAddrs) const
{
    ObsReport r;
    r.abortLanesByReason = abortLanes;
    r.stallsByReason = stalls;
    r.stallPeakOccupancy = stallPeak;
    r.stallDepthSum = depthSum;
    r.stallDepthCount = depthCount;
    r.hotAddrs = prof.topN(maxHotAddrs);
    r.distinctConflictAddrs = prof.distinctAddrs();
    r.samples = sampler.data();
    return r;
}

} // namespace getm
