/**
 * @file
 * Direct unit tests of the SIMT stack surgery in Warp: reconvergence
 * popping, Transaction/Retry entry management, and lane-abort masking --
 * the mechanics of Fung et al.'s transactional SIMT stack [24].
 */

#include <gtest/gtest.h>

#include "simt/warp.hh"

namespace getm {
namespace {

Warp
freshWarp(LaneMask valid = fullMask)
{
    Warp warp;
    warp.launch(/*gwid=*/5, /*slot=*/0, /*first_tid=*/0, valid,
                /*now=*/0);
    return warp;
}

TEST(WarpStack, LaunchResetsToSingleBaseEntry)
{
    Warp warp = freshWarp(0xffffu);
    ASSERT_EQ(warp.stack.size(), 1u);
    EXPECT_EQ(warp.top().kind, EntryKind::Normal);
    EXPECT_EQ(warp.top().pc, 0u);
    EXPECT_EQ(warp.top().mask, 0xffffu);
    EXPECT_EQ(warp.top().rpc, noRpc);
    EXPECT_FALSE(warp.inTx);
}

TEST(WarpStack, ReconvergePopsEntriesAtTheirRpc)
{
    Warp warp = freshWarp();
    warp.stack.push_back({EntryKind::Normal, 10, 10, 0x0f});
    warp.reconverge();
    EXPECT_EQ(warp.stack.size(), 1u);
}

TEST(WarpStack, ReconvergeKeepsActiveDivergence)
{
    Warp warp = freshWarp();
    warp.stack.push_back({EntryKind::Normal, 7, 10, 0x0f});
    warp.reconverge();
    EXPECT_EQ(warp.stack.size(), 2u);
}

TEST(WarpStack, ReconvergeDropsEmptiedDivergence)
{
    Warp warp = freshWarp();
    warp.stack.push_back({EntryKind::Normal, 7, 10, 0x00});
    warp.reconverge();
    EXPECT_EQ(warp.stack.size(), 1u);
}

TEST(WarpStack, ReconvergeNeverPopsBaseOrTransaction)
{
    Warp warp = freshWarp();
    warp.stack.push_back({EntryKind::Retry, 4, noRpc, 0});
    warp.stack.push_back({EntryKind::Transaction, 4, noRpc, 0xff});
    warp.reconverge();
    EXPECT_EQ(warp.stack.size(), 3u);
}

TEST(WarpStack, TransactionAndRetryIndices)
{
    Warp warp = freshWarp();
    EXPECT_EQ(warp.transactionIndex(), -1);
    warp.stack.push_back({EntryKind::Retry, 4, noRpc, 0});
    warp.stack.push_back({EntryKind::Transaction, 4, noRpc, 0xff});
    EXPECT_EQ(warp.transactionIndex(), 2);
    EXPECT_EQ(warp.retryIndex(), 1);
}

TEST(WarpStack, AbortMovesLanesToRetry)
{
    Warp warp = freshWarp();
    warp.inTx = true;
    warp.stack.push_back({EntryKind::Retry, 4, noRpc, 0});
    warp.stack.push_back({EntryKind::Transaction, 4, noRpc, 0xff});
    warp.abortLanesOnStack(0x0f);
    EXPECT_EQ(warp.stack[2].mask, 0xf0u);
    EXPECT_EQ(warp.stack[1].mask, 0x0fu);
    EXPECT_EQ(warp.abortedMask, 0x0fu);
    EXPECT_FALSE(warp.txAllAborted());
    warp.abortLanesOnStack(0xf0);
    EXPECT_TRUE(warp.txAllAborted());
}

TEST(WarpStack, AbortClearsDivergenceAboveTransaction)
{
    Warp warp = freshWarp();
    warp.inTx = true;
    warp.stack.push_back({EntryKind::Retry, 4, noRpc, 0});
    warp.stack.push_back({EntryKind::Transaction, 9, noRpc, 0xff});
    // Divergence inside the transaction.
    warp.stack.push_back({EntryKind::Normal, 6, 9, 0x0f});
    warp.abortLanesOnStack(0x0f);
    // The divergence entry lost all lanes and was popped.
    ASSERT_EQ(warp.stack.size(), 3u);
    EXPECT_EQ(warp.stack[2].kind, EntryKind::Transaction);
    EXPECT_EQ(warp.stack[2].mask, 0xf0u);
    EXPECT_EQ(warp.stack[1].mask, 0x0fu);
}

TEST(WarpStack, AbortLeavesBaseEntryUntouched)
{
    Warp warp = freshWarp(0xffffffffu);
    warp.inTx = true;
    warp.stack.push_back({EntryKind::Retry, 4, noRpc, 0});
    warp.stack.push_back({EntryKind::Transaction, 4, noRpc, 0xffu});
    warp.abortLanesOnStack(0xffu);
    EXPECT_EQ(warp.stack[0].mask, 0xffffffffu);
}

TEST(WarpStackDeath, RetryIndexRequiresWellFormedStack)
{
    Warp warp = freshWarp();
    warp.stack.push_back({EntryKind::Transaction, 4, noRpc, 0xff});
    EXPECT_DEATH(warp.retryIndex(), "malformed");
}

TEST(WarpStackDeath, AbortOutsideTransactionPanics)
{
    Warp warp = freshWarp();
    EXPECT_DEATH(warp.abortLanesOnStack(1), "outside a transaction");
}

} // namespace
} // namespace getm
