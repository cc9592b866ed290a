/**
 * @file
 * Checker implementation: shadow versions, Pearce-Kelly cycle
 * detection, epoch GC, and end-of-run cross checks.
 */

#include "check/checker.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "check/fault.hh"

namespace getm {

bool
parseCheckLevel(const std::string &text, CheckLevel &out)
{
    if (text == "off" || text == "0") {
        out = CheckLevel::Off;
    } else if (text == "read" || text == "1") {
        out = CheckLevel::Read;
    } else if (text == "serial" || text == "on" || text == "2") {
        out = CheckLevel::Serial;
    } else {
        return false;
    }
    return true;
}

const char *
checkLevelName(CheckLevel level)
{
    switch (level) {
      case CheckLevel::Off: return "off";
      case CheckLevel::Read: return "read";
      case CheckLevel::Serial: return "serial";
    }
    return "?";
}

bool
parseFaultKind(const std::string &text, FaultKind &out)
{
    for (unsigned k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (text == faultKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

std::string
CheckReport::summary() const
{
    std::ostringstream os;
    os << "check[" << checkLevelName(level) << "]: ";
    if (totalViolations == 0) {
        os << "clean (" << txCommits << " commits, " << txAborts
           << " aborts, " << readsChecked << " reads checked, "
           << writesApplied << " writes applied, " << graphEdges
           << " edges)";
    } else {
        os << totalViolations << " violation(s):";
        for (unsigned k = 0; k < numViolationKinds; ++k) {
            if (byKind[k]) {
                os << ' ' << violationKindName(static_cast<ViolationKind>(k))
                   << '=' << byKind[k];
            }
        }
    }
    return os.str();
}

Checker::Checker(CheckLevel level) : level_(level)
{
    report_.level = level;
}

void
Checker::addViolation(ViolationKind kind, Addr addr, std::uint64_t tx,
                      std::uint32_t expected, std::uint32_t actual,
                      std::string detail)
{
    ++report_.byKind[static_cast<unsigned>(kind)];
    ++report_.totalViolations;
    if (report_.samples.size() < maxSamples) {
        report_.samples.push_back(
            {kind, addr, tx, expected, actual, std::move(detail)});
    }
}

Checker::LaneSlot &
Checker::laneSlot(GlobalWarpId gwid, LaneId lane)
{
    const std::uint64_t key = slotKey(gwid, lane);
    if (key >= slots.size())
        slots.resize(key + 1);
    return slots[key];
}

std::uint32_t
Checker::touch(Addr addr)
{
    const std::uint32_t idx = shadowIndex.insert(addr, shadow);
    if (idx == shadow.size())
        shadow.push_back({addr, {}, {}});
    return idx;
}

void
Checker::addRef(std::uint64_t tx)
{
    if (tx >= refs.size())
        refs.resize(tx + 1);
    ++refs[tx];
}

void
Checker::dropRef(std::uint64_t tx)
{
    // A node losing its last reference may retire at this pass.
    if (--refs[tx] == 0 && tx < nodeOf.size() && nodeOf[tx])
        candidates.push_back(nodeOf[tx] - 1);
}

bool
Checker::pinned(std::uint64_t tx) const
{
    return ((pinBits[tx >> 6] >> (tx & 63)) & 1) ||
           (tx < refs.size() && refs[tx] > 0);
}

void
Checker::pushVersion(std::uint32_t idx, std::uint64_t writer,
                     std::uint32_t value)
{
    AddrState &st = shadow[idx];
    auto &vs = st.versions;
    vs.push_back({writer, ++eventSeq, value,
                  static_cast<std::uint32_t>(st.readers.size())});
    if (writer)
        addRef(writer);
    if (vs.size() == 2)
        grown.push_back(idx);
}

void
Checker::attemptBegin(GlobalWarpId gwid, LaneMask lanes,
                      std::uint32_t first_tid)
{
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        LaneSlot &slot = laneSlot(gwid, lane);
        slot.active = true;
        slot.cur.reset(++txCounter, first_tid + lane);
        ++report_.txBegins;
    }
}

void
Checker::readObserved(GlobalWarpId gwid, LaneId lane, Addr addr,
                      std::uint32_t value)
{
    ++report_.readsChecked;
    const std::uint32_t idx = touch(addr);
    const auto &vs = shadow[idx].versions;
    if (vs.empty()) {
        // First touch: adopt the store's value as the initial version
        // (workload setup writes host-side, below the hooks).
        pushVersion(idx, 0, value);
    } else if (vs.back().value != value) {
        const LaneSlot &slot = laneSlot(gwid, lane);
        std::ostringstream os;
        os << "tx read of 0x" << std::hex << addr << std::dec
           << " observed a value the shadow never saw applied";
        addViolation(ViolationKind::InconsistentRead, addr,
                     slot.active ? slot.cur.id : 0, vs.back().value, value,
                     os.str());
        return; // do not bind the bogus value to a version
    }
    if (level_ < CheckLevel::Serial)
        return;
    LaneSlot &slot = laneSlot(gwid, lane);
    if (slot.active) {
        const Version &v = vs.back();
        slot.cur.reads.push_back({idx, v.installSeq, v.writer});
    }
}

void
Checker::attemptAborted(GlobalWarpId gwid, LaneMask lanes)
{
    for (LaneId lane = 0; lane < warpSize; ++lane) {
        if (!(lanes & (1u << lane)))
            continue;
        LaneSlot &slot = laneSlot(gwid, lane);
        if (!slot.active)
            continue;
        ++report_.txAborts;
        slot.active = false;
        slot.cur.reset(0, 0);
    }
}

void
Checker::attemptCommitted(GlobalWarpId gwid, LaneId lane,
                          const std::vector<LogEntry> &writes)
{
    ++report_.txCommits;
    LaneSlot &slot = laneSlot(gwid, lane);
    if (!slot.active) {
        // Commit without a begin: the hooks missed an attempt start.
        slot.cur.reset(++txCounter, 0);
    }
    slot.active = false;
    Attempt &att = slot.cur;

    // The attempt's intents go behind those still awaiting applies.
    const std::size_t first = slot.pending.size();
    for (const LogEntry &e : writes)
        slot.pending.push_back({att.id, e.addr, e.value, false});

    // WarpTM-EL applied at the core before retiring: match those
    // applies against the intent now.
    for (const auto &[addr, value] : att.earlyApplies) {
        WriteIntent *intent = nullptr;
        for (std::size_t i = first; i < slot.pending.size(); ++i) {
            if (!slot.pending[i].applied && slot.pending[i].addr == addr) {
                intent = &slot.pending[i];
                break;
            }
        }
        if (!intent) {
            std::ostringstream os;
            os << "T" << att.id << " (tid " << att.tid
               << ") applied a write it never logged";
            addViolation(ViolationKind::CorruptApply, addr, att.id, 0,
                         value, os.str());
            continue;
        }
        intent->applied = true;
        if (intent->value != value) {
            std::ostringstream os;
            os << "T" << att.id << " (tid " << att.tid
               << ") logged one value but memory got another";
            addViolation(ViolationKind::CorruptApply, addr, att.id,
                         intent->value, value, os.str());
        }
    }

    if (level_ >= CheckLevel::Serial) {
        ensureNode(att.id);
        for (const ReadRec &r : att.reads) {
            AddrState &st = shadow[r.addrIdx];
            if (r.writer != 0 && r.writer != att.id)
                addEdge(r.writer, att.id, "WR", st.addr);
            const std::uint32_t vi = findVersion(st, r.installSeq);
            if (vi == noIndex)
                continue;
            st.readers.push_back({att.id, r.installSeq});
            addRef(att.id);
            if (vi + 1 < st.versions.size()) {
                const std::uint64_t succ = st.versions[vi + 1].writer;
                if (succ != 0 && succ != att.id)
                    addEdge(att.id, succ, "RW", st.addr);
            }
        }
    }

    bool outstanding = false;
    for (std::size_t i = first; i < slot.pending.size(); ++i)
        outstanding |= !slot.pending[i].applied;
    if (!outstanding)
        slot.pending.resize(first);
    att.reset(0, 0);

    maybeGc();
}

void
Checker::writeApplied(GlobalWarpId gwid, LaneId lane, Addr addr,
                      std::uint32_t value)
{
    ++report_.writesApplied;
    LaneSlot &slot = laneSlot(gwid, lane);
    std::uint64_t owner = 0;

    // GETM / WarpTM-LL: applies land at the partitions after the lane
    // retired; the oldest pending intent for this address owns it.
    for (WriteIntent &in : slot.pending) {
        if (in.applied || in.addr != addr)
            continue;
        in.applied = true;
        owner = in.tx;
        if (in.value != value) {
            std::ostringstream os;
            os << "T" << in.tx << " logged one value but memory got another";
            addViolation(ViolationKind::CorruptApply, addr, in.tx, in.value,
                         value, os.str());
        }
        break;
    }
    if (!owner && slot.active) {
        // WarpTM-EL: core-side apply before the attempt retires.
        owner = slot.cur.id;
        slot.cur.earlyApplies.emplace_back(addr, value);
    }
    if (!owner) {
        addViolation(ViolationKind::CorruptApply, addr, 0, 0, value,
                     "commit apply with no owning transaction attempt");
    }
    installVersion(addr, owner, value);

    // Drop the committed attempts at the front whose intents all
    // landed: everything before the oldest attempt still waiting.
    auto &pending = slot.pending;
    auto open = std::find_if(pending.begin(), pending.end(),
                             [](const WriteIntent &in) { return !in.applied; });
    if (open == pending.end()) {
        pending.clear();
        return;
    }
    while (open != pending.begin() && (open - 1)->tx == open->tx)
        --open;
    pending.erase(pending.begin(), open);
}

void
Checker::externalWrite(Addr addr, std::uint32_t value)
{
    installVersion(addr, 0, value);
}

void
Checker::installVersion(Addr addr, std::uint64_t writer,
                        std::uint32_t value)
{
    const std::uint32_t idx = touch(addr);
    const AddrState &st = shadow[idx];
    if (!st.versions.empty() && writer != 0 &&
        level_ >= CheckLevel::Serial) {
        const Version &prev = st.versions.back();
        if (prev.writer != 0 && prev.writer != writer)
            addEdge(prev.writer, writer, "WW", addr);
        for (std::size_t i = prev.readersFrom; i < st.readers.size(); ++i) {
            const ReaderRec &rr = st.readers[i];
            if (rr.installSeq == prev.installSeq && rr.tx != writer)
                addEdge(rr.tx, writer, "RW", addr);
        }
        ensureNode(writer);
    }
    pushVersion(idx, writer, value);
}

std::uint32_t
Checker::ensureNode(std::uint64_t tx)
{
    if (tx >= nodeOf.size())
        nodeOf.resize(tx + 1);
    if (nodeOf[tx])
        return nodeOf[tx] - 1;
    std::uint32_t idx;
    if (!freeNodes.empty()) {
        idx = freeNodes.back();
        freeNodes.pop_back();
    } else {
        idx = static_cast<std::uint32_t>(nodes.size());
        nodes.emplace_back();
        mark.push_back(0);
        parent.push_back(0);
    }
    TxNode &node = nodes[idx];
    node.id = tx;
    node.ord = ++ordCounter;
    nodeOf[tx] = idx + 1;
    candidates.push_back(idx);
    return idx;
}

std::uint32_t
Checker::findVersion(const AddrState &st, std::uint64_t install_seq)
{
    const auto &vs = st.versions;
    if (vs.back().installSeq == install_seq)
        return static_cast<std::uint32_t>(vs.size() - 1);
    auto it = std::lower_bound(
        vs.begin(), vs.end(), install_seq,
        [](const Version &v, std::uint64_t s) { return v.installSeq < s; });
    if (it == vs.end() || it->installSeq != install_seq)
        return noIndex;
    return static_cast<std::uint32_t>(it - vs.begin());
}

std::size_t
Checker::outPos(const std::vector<std::uint32_t> &out, std::uint64_t id) const
{
    return static_cast<std::size_t>(
        std::lower_bound(out.begin(), out.end(), id,
                         [this](std::uint32_t a, std::uint64_t b) {
                             return nodes[a].id < b;
                         }) -
        out.begin());
}

std::uint32_t
Checker::nextMark()
{
    if (++markEpoch == 0) {
        std::fill(mark.begin(), mark.end(), 0);
        markEpoch = 1;
    }
    return markEpoch;
}

void
Checker::addEdge(std::uint64_t u, std::uint64_t v, const char *dep,
                 Addr addr)
{
    if (u == v)
        return;
    const std::uint32_t nu = ensureNode(u);
    const std::uint32_t nv = ensureNode(v);
    std::vector<std::uint32_t> &out = nodes[nu].out;
    const std::size_t at = outPos(out, v);
    if (at < out.size() && out[at] == nv)
        return;

    if (nodes[nv].ord < nodes[nu].ord) {
        // Affected region: does v already reach u? (Sound because ord
        // is a valid topological order, so any v ->* u path stays
        // within ord <= ord[u].) Successors are explored in ascending
        // tx id, so a reported cycle path does not depend on layout.
        const std::uint64_t ub = nodes[nu].ord;
        const std::uint32_t fwd = nextMark();
        stack.assign(1, nv);
        deltaF.clear();
        mark[nv] = fwd;
        parent[nv] = nv;
        bool cycle = false;
        while (!stack.empty()) {
            const std::uint32_t x = stack.back();
            stack.pop_back();
            if (x == nu) {
                cycle = true;
                break;
            }
            deltaF.push_back(x);
            const auto &succ = nodes[x].out;
            for (auto it = succ.rbegin(); it != succ.rend(); ++it) {
                const std::uint32_t y = *it;
                if (mark[y] == fwd || nodes[y].ord > ub)
                    continue;
                mark[y] = fwd;
                parent[y] = x;
                stack.push_back(y);
            }
        }
        if (cycle) {
            std::ostringstream os;
            os << dep << " edge T" << u << "->T" << v << " on 0x"
               << std::hex << addr << std::dec << " closes cycle: T" << u;
            std::vector<std::uint64_t> path;
            for (std::uint32_t x = nu; x != nv; x = parent[x])
                path.push_back(nodes[x].id);
            path.push_back(v);
            for (auto it = path.rbegin(); it != path.rend(); ++it)
                os << "->T" << *it;
            addViolation(ViolationKind::SerializabilityCycle, addr, u, 0,
                         0, os.str());
            return; // keep the graph a DAG so detection stays alive
        }
        // Reorder (Pearce-Kelly): shift the region reaching u below
        // the region reachable from v.
        const std::uint64_t lb = nodes[nv].ord;
        const std::uint32_t bwd = nextMark();
        stack.assign(1, nu);
        deltaB.clear();
        mark[nu] = bwd;
        while (!stack.empty()) {
            const std::uint32_t x = stack.back();
            stack.pop_back();
            deltaB.push_back(x);
            for (std::uint32_t y : nodes[x].in) {
                if (mark[y] == bwd || nodes[y].ord < lb)
                    continue;
                mark[y] = bwd;
                stack.push_back(y);
            }
        }
        auto by_ord = [this](std::uint32_t a, std::uint32_t b) {
            return nodes[a].ord < nodes[b].ord;
        };
        std::sort(deltaB.begin(), deltaB.end(), by_ord);
        std::sort(deltaF.begin(), deltaF.end(), by_ord);
        ordPool.clear();
        for (std::uint32_t x : deltaB)
            ordPool.push_back(nodes[x].ord);
        for (std::uint32_t x : deltaF)
            ordPool.push_back(nodes[x].ord);
        std::sort(ordPool.begin(), ordPool.end());
        std::size_t slot = 0;
        for (std::uint32_t x : deltaB)
            nodes[x].ord = ordPool[slot++];
        for (std::uint32_t x : deltaF)
            nodes[x].ord = ordPool[slot++];
    }

    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), nv);
    nodes[nv].in.push_back(nu);
    ++report_.graphEdges;
}

void
Checker::maybeGc()
{
    if (++commitsSinceGc < gcPeriod)
        return;
    commitsSinceGc = 0;
    gc();
}

void
Checker::gc()
{
    ++report_.gcRuns;

    // Pin everything a future event can still reference: in-flight
    // attempts, committed attempts with outstanding applies, and the
    // exact versions in-flight reads bound to. Writers and committed
    // readers of surviving versions are pinned by their reference
    // counts, kept up to date as versions come and go.
    pinBits.assign(txCounter / 64 + 1, 0);
    auto pin = [this](std::uint64_t tx) {
        pinBits[tx >> 6] |= std::uint64_t{1} << (tx & 63);
    };
    std::vector<std::pair<std::uint32_t, std::uint64_t>> keep_reads;
    for (const LaneSlot &slot : slots) {
        if (slot.active) {
            pin(slot.cur.id);
            for (const ReadRec &r : slot.cur.reads) {
                keep_reads.emplace_back(r.addrIdx, r.installSeq);
                if (r.writer)
                    pin(r.writer);
            }
        }
        for (const WriteIntent &in : slot.pending)
            pin(in.tx);
    }

    pruneVersions(keep_reads);
    condenseGraph();
}

void
Checker::pruneVersions(
    std::vector<std::pair<std::uint32_t, std::uint64_t>> &keep_reads)
{
    // Only addresses holding more than one version can shed any: prune
    // each to its newest version plus the ones in-flight reads bound
    // to, releasing the pruned versions' references.
    std::sort(keep_reads.begin(), keep_reads.end());
    std::size_t still_grown = 0;
    for (std::uint32_t idx : grown) {
        AddrState &st = shadow[idx];
        auto &vs = st.versions;
        auto kr = std::lower_bound(keep_reads.begin(), keep_reads.end(),
                                   std::make_pair(idx, std::uint64_t{0}));
        std::size_t kept = 0;
        for (std::size_t i = 0; i < vs.size(); ++i) {
            bool keep_it = i + 1 == vs.size();
            if (!keep_it) {
                while (kr != keep_reads.end() && kr->first == idx &&
                       kr->second < vs[i].installSeq)
                    ++kr;
                keep_it = kr != keep_reads.end() && kr->first == idx &&
                          kr->second == vs[i].installSeq;
            }
            if (keep_it) {
                vs[kept] = vs[i];
                vs[kept++].readersFrom = 0;
            } else if (vs[i].writer) {
                dropRef(vs[i].writer);
            }
        }
        vs.resize(kept);
        std::size_t kept_readers = 0;
        for (const ReaderRec &rr : st.readers) {
            if (findVersion(st, rr.installSeq) != noIndex)
                st.readers[kept_readers++] = rr;
            else
                dropRef(rr.tx);
        }
        st.readers.resize(kept_readers);
        if (kept > 1)
            grown[still_grown++] = idx;
    }
    grown.resize(still_grown);
}

void
Checker::condenseGraph()
{
    // Sort the candidates: a pinned one stays (and is looked at again
    // next pass if only a slot pin holds it), the rest retire. Every
    // live node outside the list is referenced, hence pinned.
    std::vector<std::uint8_t> retiring(nodes.size(), 0);
    std::vector<std::uint32_t> retired, carried;
    const std::uint32_t listed = nextMark();
    for (std::uint32_t c : candidates) {
        if (mark[c] == listed)
            continue;
        mark[c] = listed;
        const std::uint64_t id = nodes[c].id;
        if (pinned(id)) {
            if (id >= refs.size() || refs[id] == 0)
                carried.push_back(c);
            continue;
        }
        retiring[c] = 1;
        retired.push_back(c);
    }
    candidates.swap(carried);
    if (retired.empty())
        return;

    // Condense: future edges only attach to pinned nodes, but a future
    // cycle may route *through* retired interior nodes, so preserve
    // pinned-to-pinned reachability with direct edges before dropping
    // them. Only a pinned predecessor of a retiring node can gain one.
    // An existing u ->* p path implies ord[u] < ord[p], so the
    // shortcut edge needs no reordering.
    std::vector<std::uint32_t> starts, reached;
    const std::uint32_t started = nextMark();
    for (std::uint32_t r : retired) {
        for (std::uint32_t p : nodes[r].in) {
            if (!retiring[p] && mark[p] != started) {
                mark[p] = started;
                starts.push_back(p);
            }
        }
    }
    for (std::uint32_t p : starts) {
        const std::uint32_t seen = nextMark();
        stack.clear();
        for (std::uint32_t s : nodes[p].out) {
            if (retiring[s] && mark[s] != seen) {
                mark[s] = seen;
                stack.push_back(s);
            }
        }
        reached.clear();
        while (!stack.empty()) {
            const std::uint32_t x = stack.back();
            stack.pop_back();
            for (std::uint32_t y : nodes[x].out) {
                if (!retiring[y]) {
                    reached.push_back(y);
                } else if (mark[y] != seen) {
                    mark[y] = seen;
                    stack.push_back(y);
                }
            }
        }
        for (std::uint32_t q : reached) {
            std::vector<std::uint32_t> &out = nodes[p].out;
            const std::size_t at = outPos(out, nodes[q].id);
            if (q == p || (at < out.size() && out[at] == q))
                continue;
            out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), q);
            nodes[q].in.push_back(p);
        }
    }

    // Unlink the retiring nodes from their surviving neighbours, then
    // return them to the pool.
    std::vector<std::uint32_t> touched;
    const std::uint32_t unlinked = nextMark();
    auto touch_node = [&](std::uint32_t q) {
        if (!retiring[q] && mark[q] != unlinked) {
            mark[q] = unlinked;
            touched.push_back(q);
        }
    };
    for (std::uint32_t r : retired) {
        for (std::uint32_t q : nodes[r].out)
            touch_node(q);
        for (std::uint32_t q : nodes[r].in)
            touch_node(q);
    }
    auto is_retiring = [&retiring](std::uint32_t x) { return retiring[x]; };
    for (std::uint32_t q : touched) {
        std::erase_if(nodes[q].out, is_retiring);
        std::erase_if(nodes[q].in, is_retiring);
    }
    for (std::uint32_t r : retired) {
        TxNode &node = nodes[r];
        nodeOf[node.id] = 0;
        node.id = 0;
        node.out.clear();
        node.in.clear();
        freeNodes.push_back(r);
    }
    report_.nodesReclaimed += retired.size();
}

void
Checker::rebuildDerived()
{
    shadowIndex.assign(shadow);

    grown.clear();
    refs.assign(txCounter + 1, 0);
    for (std::uint32_t idx = 0; idx < shadow.size(); ++idx) {
        const auto &vs = shadow[idx].versions;
        if (vs.size() > 1)
            grown.push_back(idx);
        for (const Version &v : vs) {
            if (v.writer)
                addRef(v.writer);
        }
        for (const ReaderRec &rr : shadow[idx].readers)
            addRef(rr.tx);
    }

    // Every live node becomes a candidate of the next pass: a superset
    // of the uninterrupted run's list, which changes no outcome.
    nodeOf.assign(txCounter + 1, 0);
    freeNodes.clear();
    candidates.clear();
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].id) {
            nodeOf[nodes[i].id] = i + 1;
            candidates.push_back(i);
        } else {
            freeNodes.push_back(i);
        }
    }
    mark.assign(nodes.size(), 0);
    parent.assign(nodes.size(), 0);
    markEpoch = 0;
}

void
Checker::finish(const BackingStore &store)
{
    for (const LaneSlot &slot : slots) {
        for (const WriteIntent &in : slot.pending) {
            if (in.applied)
                continue;
            std::ostringstream os;
            os << "T" << in.tx << " committed a write to 0x" << std::hex
               << in.addr << std::dec << " that never reached memory";
            addViolation(ViolationKind::LostWrite, in.addr, in.tx,
                         in.value, store.read(in.addr), os.str());
        }
    }
    for (const AddrState &st : shadow) {
        const std::uint32_t actual = store.read(st.addr);
        if (actual != st.versions.back().value) {
            std::ostringstream os;
            os << "memory at 0x" << std::hex << st.addr << std::dec
               << " diverged from the applied-write shadow";
            addViolation(ViolationKind::FinalStateMismatch, st.addr, 0,
                         st.versions.back().value, actual, os.str());
        }
    }
}

} // namespace getm
