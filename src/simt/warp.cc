#include "simt/warp.hh"

#include "common/log.hh"

namespace getm {

void
Warp::reconverge()
{
    while (stack.size() > 1) {
        const SimtEntry &entry = stack.back();
        if (entry.kind == EntryKind::Normal && entry.rpc != noRpc &&
            entry.pc == entry.rpc) {
            stack.pop_back();
        } else if (entry.kind == EntryKind::Normal && entry.mask == 0 &&
                   entry.rpc != noRpc) {
            // Divergence entry whose lanes all aborted mid-transaction.
            stack.pop_back();
        } else {
            break;
        }
    }
}

int
Warp::transactionIndex() const
{
    for (int i = static_cast<int>(stack.size()) - 1; i >= 0; --i)
        if (stack[i].kind == EntryKind::Transaction)
            return i;
    return -1;
}

int
Warp::retryIndex() const
{
    const int tx = transactionIndex();
    if (tx <= 0 || stack[tx - 1].kind != EntryKind::Retry)
        panic("malformed SIMT stack: Transaction without Retry below");
    return tx - 1;
}

void
Warp::abortLanesOnStack(LaneMask lanes)
{
    const int tx = transactionIndex();
    if (tx < 0)
        panic("abortLanesOnStack outside a transaction");
    for (unsigned i = tx; i < stack.size(); ++i)
        stack[i].mask &= ~lanes;
    stack[retryIndex()].mask |= lanes;
    abortedMask |= lanes;
    // Drop emptied divergence entries above the Transaction entry.
    while (static_cast<int>(stack.size()) - 1 > tx &&
           stack.back().kind == EntryKind::Normal && stack.back().mask == 0)
        stack.pop_back();
}

bool
Warp::txAllAborted() const
{
    const int tx = transactionIndex();
    return tx >= 0 && stack[tx].mask == 0;
}

void
Warp::launch(GlobalWarpId gwid_, std::uint32_t slot_,
             std::uint32_t first_tid, LaneMask valid, Cycle now)
{
    gwid = gwid_;
    slot = slot_;
    firstTid = first_tid;
    validLanes = valid;
    regs.fill(0);
    stack.clear();
    stack.push_back({EntryKind::Normal, 0, noRpc, valid});
    state = WarpState::Ready;
    wakeCycle = now;
    outstanding = 0;
    outstandingTxStores = 0;
    stateSince = now;
    inTx = false;
    abortedMask = 0;
    for (auto &log : logs)
        log.clear();
    retriesThisTx = 0;
}

} // namespace getm
