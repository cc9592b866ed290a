#include "obs/tx_tracer.hh"

#include <algorithm>
#include <cstdio>

#include "common/json.hh"

namespace getm {

namespace {

std::string
hexAddr(Addr addr)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

constexpr unsigned
phaseIndex(TxPhase phase)
{
    return static_cast<unsigned>(phase);
}

} // namespace

TxTracer::TxTracer(std::uint64_t sampleRate)
    : rate(sampleRate == 0 ? 1 : sampleRate)
{
}

TxTracer::LiveTx *
TxTracer::find(GlobalWarpId gwid)
{
    auto it = open.find(gwid);
    return it == open.end() ? nullptr : &it->second;
}

bool
TxTracer::tracing(GlobalWarpId gwid) const
{
    return open.count(gwid) != 0;
}

void
TxTracer::charge(LiveTx &tx, Cycle now)
{
    // The cursor only ever moves forward: an event reported at an
    // earlier cycle (different components interleave within a visited
    // cycle) charges nothing rather than rewinding, which would
    // double-count the rewound slice and break the exact-sum
    // invariant.
    if (now > tx.cursor) {
        const std::uint64_t slice = now - tx.cursor;
        // Stall dwell overlays the scheduler phase: while any of the
        // transaction's accesses sits in a stall buffer, the warp's
        // cycles are attributed to the stall, whatever state the
        // scheduler shows (GETM parks stores without blocking the
        // warp, so the dwell is not nested inside MemWait).
        if (tx.stallDepth > 0)
            tx.attemptStall += slice;
        else
            tx.attemptPhase[phaseIndex(tx.phase)] += slice;
        // Raw per-state totals ignore the overlay so they stay
        // comparable with the core's tx_exec/tx_wait counters.
        switch (tx.phase) {
          case TxPhase::Exec: tx.rec.rawExec += slice; break;
          case TxPhase::Mem: tx.rec.rawMem += slice; break;
          case TxPhase::Validate: tx.rec.rawValidate += slice; break;
          case TxPhase::Backoff: tx.rec.rawBackoff += slice; break;
        }
        tx.cursor = now;
    }
}

void
TxTracer::foldAttempt(LiveTx &tx, bool committedAny)
{
    TxCycleBreakdown &cyc = tx.rec.cycles;
    if (committedAny) {
        // The attempt that made it: its phases are the useful work.
        cyc.exec += tx.attemptPhase[phaseIndex(TxPhase::Exec)];
        cyc.noc += tx.attemptPhase[phaseIndex(TxPhase::Mem)];
        cyc.validation += tx.attemptPhase[phaseIndex(TxPhase::Validate)];
        cyc.retry += tx.attemptPhase[phaseIndex(TxPhase::Backoff)];
        cyc.stall += tx.attemptStall;
    } else {
        // Aborted attempts are redo work, whatever they spent it on.
        for (std::uint64_t v : tx.attemptPhase)
            cyc.retry += v;
        cyc.retry += tx.attemptStall;
    }
    tx.attemptPhase = {};
    tx.attemptStall = 0;
}

void
TxTracer::close(LiveTx &tx, Cycle now)
{
    charge(tx, now);
    // cursor == now on every healthy path; the max() keeps the sum
    // invariant unconditional even if an instrumentation site ever
    // reported a time past the closing event.
    tx.rec.endCycle = std::max(now, tx.cursor);
    closed.push_back(std::move(tx.rec));
}

void
TxTracer::txAttemptBegin(GlobalWarpId gwid, CoreId core,
                         std::uint32_t slot, unsigned attempt,
                         unsigned lanes, Cycle now)
{
    (void)lanes;
    if (attempt == 0) {
        ++seen;
        if ((seen - 1) % rate != 0)
            return;
        LiveTx &tx = open[gwid]; // overwrites a stale entry, if any
        tx = LiveTx{};
        tx.rec.traceId = nextTraceId++;
        tx.rec.gwid = gwid;
        tx.rec.core = core;
        tx.rec.slot = slot;
        tx.rec.beginCycle = now;
        tx.rec.attempts = 1;
        tx.cursor = now;
        tx.phase = TxPhase::Exec;
        return;
    }
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    // Retry attempt: the preceding txRetire charged up to this same
    // cycle, so restarting the cursor here keeps the telescoping sum
    // exact across attempts.
    ++tx->rec.attempts;
    tx->cursor = now;
    tx->phase = TxPhase::Exec;
    tx->stallDepth = 0;
    tx->accesses.clear();
}

void
TxTracer::txPhase(GlobalWarpId gwid, TxPhase phase, Cycle now)
{
    if (LiveTx *tx = find(gwid)) {
        charge(*tx, now);
        tx->phase = phase;
    }
}

void
TxTracer::txAccessIssue(GlobalWarpId gwid, Addr granule, bool store,
                        Cycle now)
{
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    ++tx->rec.accessesIssued;
    PendingAccess acc;
    acc.granule = granule;
    acc.store = store;
    acc.issue = now;
    tx->accesses.push_back(acc);
}

void
TxTracer::txAccessDecision(GlobalWarpId gwid, Addr granule,
                           PartitionId partition, bool ok, Cycle arrival,
                           Cycle ready)
{
    (void)partition;
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    for (PendingAccess &acc : tx->accesses) {
        if (acc.granule != granule || acc.decided)
            continue;
        acc.decided = true;
        acc.ok = ok;
        acc.arrival = arrival;
        acc.ready = ready;
        return;
    }
}

void
TxTracer::txAccessResponse(GlobalWarpId gwid, Addr granule, Cycle now)
{
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    for (auto it = tx->accesses.begin(); it != tx->accesses.end(); ++it) {
        if (it->granule != granule || !it->decided)
            continue;
        ++tx->rec.accessesCompleted;
        if (mirror)
            mirror->complete(tx->rec.core, tx->rec.slot,
                             std::string(it->store ? "tx-st " : "tx-ld ") +
                                 hexAddr(granule),
                             it->issue, now - it->issue);
        tx->accesses.erase(it);
        return;
    }
}

void
TxTracer::txStallEnter(GlobalWarpId gwid, Addr granule,
                       PartitionId partition, Cycle now)
{
    (void)granule;
    (void)partition;
    if (LiveTx *tx = find(gwid)) {
        charge(*tx, now);
        ++tx->stallDepth;
    }
}

void
TxTracer::txStallExit(GlobalWarpId gwid, Addr granule,
                      PartitionId partition, Cycle enqueued, Cycle now)
{
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    charge(*tx, now);
    if (tx->stallDepth > 0)
        --tx->stallDepth;
    if (mirror)
        mirror->complete(vuPid, partition,
                         std::string("stall ") + hexAddr(granule),
                         enqueued, now - enqueued);
}

void
TxTracer::txConflict(GlobalWarpId victim, GlobalWarpId aborter,
                     AbortReason reason, Addr addr, PartitionId partition,
                     Cycle now)
{
    LiveTx *tx = find(victim);
    if (!tx)
        return;
    tx->conflictPending = true;
    tx->conflict.reason = reason;
    tx->conflict.addr = addr;
    tx->conflict.aborter = aborter;
    tx->conflict.partition = partition;
    tx->conflict.cycle = now;
}

void
TxTracer::txAbort(GlobalWarpId gwid, AbortReason reason, Addr addr,
                  unsigned lanes, Cycle now)
{
    (void)lanes;
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    TxAbortRecord rec;
    rec.attempt = tx->rec.attempts - 1;
    rec.reason = reason;
    rec.addr = addr;
    rec.cycle = now;
    // Merge the partition- or core-side conflict report that preceded
    // this accounting point (same reason => same conflict).
    if (tx->conflictPending && tx->conflict.reason == reason) {
        rec.aborter = tx->conflict.aborter;
        rec.partition = tx->conflict.partition;
        if (rec.addr == invalidAddr)
            rec.addr = tx->conflict.addr;
    }
    tx->conflictPending = false;
    tx->rec.aborts.push_back(rec);
    if (mirror) {
        std::string name = "killed-by:";
        if (rec.aborter == invalidWarp) {
            name += '?';
        } else {
            name += 'w';
            name += std::to_string(rec.aborter);
        }
        mirror->instant(tx->rec.core, tx->rec.slot, name.c_str(), now);
    }
}

void
TxTracer::txCommitHandoff(GlobalWarpId gwid, Cycle now)
{
    if (LiveTx *tx = find(gwid)) {
        tx->rec.commitHandoff = now;
        tx->rec.sawHandoff = true;
    }
}

void
TxTracer::txValidation(GlobalWarpId gwid, PartitionId partition,
                       bool pass, Cycle start, Cycle end)
{
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    if (mirror)
        mirror->complete(vuPid, partition,
                         pass ? "validate" : "validate-fail", start,
                         end - start);
}

void
TxTracer::txRetire(GlobalWarpId gwid, unsigned committedLanes,
                   bool willRetry, Cycle now)
{
    LiveTx *tx = find(gwid);
    if (!tx)
        return;
    charge(*tx, now);
    foldAttempt(*tx, committedLanes > 0);
    tx->rec.committedLanes += committedLanes;
    // Rollover flushes and forced aborts can leave per-attempt state
    // mid-flight; a retire is always a clean boundary.
    tx->stallDepth = 0;
    tx->accesses.clear();
    tx->conflictPending = false;
    if (willRetry)
        return;
    tx->rec.committed = true;
    close(*tx, now);
    open.erase(gwid);
}

void
TxTracer::nocHop(bool up, Cycle sent, Cycle arrived, unsigned bytes)
{
    TxTraceReport::NocAggregate &agg = up ? upAgg : downAgg;
    ++agg.msgs;
    agg.latencyCycles += arrived - sent;
    agg.bytes += bytes;
}

TxTraceReport
TxTracer::report(Cycle endCycle)
{
    TxTraceReport out;
    out.enabled = true;
    out.sampleRate = rate;
    out.txSeen = seen;
    out.openAtEnd = open.size();

    // Close anything still open (a run cut short) so every exported
    // row satisfies the sum-to-lifetime invariant. Deterministic
    // order: sort the leftovers by trace id, not map order.
    std::vector<LiveTx *> leftovers;
    for (auto &[gwid, tx] : open)
        leftovers.push_back(&tx);
    std::sort(leftovers.begin(), leftovers.end(),
              [](const LiveTx *a, const LiveTx *b) {
                  return a->rec.traceId < b->rec.traceId;
              });
    for (LiveTx *tx : leftovers) {
        charge(*tx, endCycle);
        foldAttempt(*tx, false);
        close(*tx, endCycle);
    }
    open.clear();

    std::sort(closed.begin(), closed.end(),
              [](const TxRecord &a, const TxRecord &b) {
                  return a.traceId < b.traceId;
              });
    out.traced = closed.size();
    for (const TxRecord &rec : closed) {
        if (rec.committed && rec.committedLanes > 0)
            ++out.committedCount;
        out.totals.exec += rec.cycles.exec;
        out.totals.noc += rec.cycles.noc;
        out.totals.stall += rec.cycles.stall;
        out.totals.validation += rec.cycles.validation;
        out.totals.retry += rec.cycles.retry;
        out.totalLifetime += rec.lifetime();
        out.rawExec += rec.rawExec;
        out.rawMem += rec.rawMem;
        out.rawValidate += rec.rawValidate;
        out.rawBackoff += rec.rawBackoff;
    }
    out.nocUp = upAgg;
    out.nocDown = downAgg;
    out.transactions = std::move(closed);
    closed.clear();
    return out;
}

namespace {

void
emitNocAggregate(JsonWriter &w, std::string_view name,
                 const TxTraceReport::NocAggregate &agg)
{
    w.key(name).beginObject();
    w.member("msgs", agg.msgs);
    w.member("latency_cycles", agg.latencyCycles);
    w.member("bytes", agg.bytes);
    w.endObject();
}

void
emitAbort(JsonWriter &w, const TxAbortRecord &abort)
{
    w.beginObject();
    w.member("attempt", static_cast<std::uint64_t>(abort.attempt));
    w.member("reason", abortReasonName(abort.reason));
    if (abort.addr != invalidAddr) {
        w.member("addr", abort.addr);
        w.member("addr_hex", hexAddr(abort.addr));
        w.member("partition",
                 static_cast<std::uint64_t>(abort.partition));
    }
    w.member("aborter_warp",
             abort.aborter == invalidWarp
                 ? static_cast<std::int64_t>(-1)
                 : static_cast<std::int64_t>(abort.aborter));
    w.member("cycle", static_cast<std::uint64_t>(abort.cycle));
    w.endObject();
}

} // namespace

std::string
txTraceSectionJson(const TxTraceReport &trace)
{
    JsonWriter w;
    w.beginObject();
    w.member("version", txTraceSchemaVersion);
    w.member("sample_rate", trace.sampleRate);
    w.member("tx_seen", trace.txSeen);
    w.member("traced", trace.traced);
    w.member("committed", trace.committedCount);
    w.member("open", trace.openAtEnd);

    w.key("totals").beginObject();
    w.member("exec", trace.totals.exec);
    w.member("noc", trace.totals.noc);
    w.member("stall", trace.totals.stall);
    w.member("validation", trace.totals.validation);
    w.member("retry", trace.totals.retry);
    w.member("lifetime", trace.totalLifetime);
    w.member("raw_exec", trace.rawExec);
    w.member("raw_mem", trace.rawMem);
    w.member("raw_validate", trace.rawValidate);
    w.member("raw_backoff", trace.rawBackoff);
    w.endObject();

    w.key("noc").beginObject();
    emitNocAggregate(w, "up", trace.nocUp);
    emitNocAggregate(w, "down", trace.nocDown);
    w.endObject();

    w.key("transactions").beginArray();
    for (const TxRecord &rec : trace.transactions) {
        w.beginObject();
        w.member("trace_id", rec.traceId);
        w.member("warp", static_cast<std::uint64_t>(rec.gwid));
        w.member("core", static_cast<std::uint64_t>(rec.core));
        w.member("slot", static_cast<std::uint64_t>(rec.slot));
        w.member("begin", static_cast<std::uint64_t>(rec.beginCycle));
        w.member("end", static_cast<std::uint64_t>(rec.endCycle));
        w.member("lifetime", static_cast<std::uint64_t>(rec.lifetime()));
        w.member("attempts", static_cast<std::uint64_t>(rec.attempts));
        w.member("committed_lanes",
                 static_cast<std::uint64_t>(rec.committedLanes));
        w.member("committed", rec.committed);
        if (rec.sawHandoff)
            w.member("commit_handoff",
                     static_cast<std::uint64_t>(rec.commitHandoff));
        w.key("cycles").beginObject();
        w.member("exec", rec.cycles.exec);
        w.member("noc", rec.cycles.noc);
        w.member("stall", rec.cycles.stall);
        w.member("validation", rec.cycles.validation);
        w.member("retry", rec.cycles.retry);
        w.endObject();
        w.key("accesses").beginObject();
        w.member("issued",
                 static_cast<std::uint64_t>(rec.accessesIssued));
        w.member("completed",
                 static_cast<std::uint64_t>(rec.accessesCompleted));
        w.endObject();
        w.key("aborts").beginArray();
        for (const TxAbortRecord &abort : rec.aborts)
            emitAbort(w, abort);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    // Top-K kill chains by length (ties: first traced wins). Each
    // chain restates its transaction's abort list, which is what the
    // validator's referential-integrity check leans on.
    constexpr std::size_t topK = 8;
    std::vector<const TxRecord *> chains;
    for (const TxRecord &rec : trace.transactions)
        if (!rec.aborts.empty())
            chains.push_back(&rec);
    std::stable_sort(chains.begin(), chains.end(),
                     [](const TxRecord *a, const TxRecord *b) {
                         return a->aborts.size() > b->aborts.size();
                     });
    if (chains.size() > topK)
        chains.resize(topK);
    w.key("kill_chains").beginArray();
    for (const TxRecord *rec : chains) {
        w.beginObject();
        w.member("trace_id", rec->traceId);
        w.member("victim_warp", static_cast<std::uint64_t>(rec->gwid));
        w.member("length",
                 static_cast<std::uint64_t>(rec->aborts.size()));
        w.key("links").beginArray();
        for (const TxAbortRecord &abort : rec->aborts)
            emitAbort(w, abort);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.endObject();
    return w.take();
}

std::string
txTraceToJson(const TxTraceReport &trace, const std::string &pointId)
{
    JsonWriter w;
    w.beginObject();
    w.member("schema", "getm-tx-trace");
    w.member("version", txTraceSchemaVersion);
    if (!pointId.empty())
        w.member("point", pointId);
    w.key("tx_trace").rawValue(txTraceSectionJson(trace));
    w.endObject();
    return w.take();
}

} // namespace getm
