#include "obs/metrics.hh"

#include <cstdio>

#include "common/json.hh"

namespace getm {

namespace {

/** 0x%llx without touching the locale. */
std::string
hexAddr(Addr addr)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(addr));
    return buf;
}

void
emitReasonTable(JsonWriter &w, std::string_view name,
                const std::array<std::uint64_t, numAbortReasons> &table)
{
    w.key(name).beginObject();
    for (unsigned i = 0; i < numAbortReasons; ++i)
        w.member(abortReasonName(static_cast<AbortReason>(i)), table[i]);
    w.endObject();
}

void
emitStats(JsonWriter &w, const StatSet &stats)
{
    w.key("stats").beginObject();

    // Untouched slots are handles registered up front that never
    // fired; skipping them keeps the export byte-identical to the
    // string-keyed era, where such names simply did not exist.
    w.key("counters").beginObject();
    for (const auto &[name, slot] : stats.allCounters()) {
        if (!slot.touched)
            continue;
        w.member(name, slot.value);
    }
    w.endObject();

    w.key("maxima").beginObject();
    for (const auto &[name, slot] : stats.allMaxima()) {
        if (!slot.touched)
            continue;
        w.member(name, slot.value);
    }
    w.endObject();

    w.key("averages").beginObject();
    for (const auto &[name, avg] : stats.allAverages()) {
        if (avg.count == 0)
            continue;
        w.key(name).beginObject();
        w.member("mean", avg.mean());
        w.member("count", avg.count);
        w.endObject();
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, hist] : stats.allHistograms()) {
        if (hist.count == 0)
            continue;
        w.key(name).beginObject();
        w.member("count", hist.count);
        w.member("sum", hist.sum);
        w.member("min", hist.count ? hist.minValue : 0);
        w.member("max", hist.maxValue);
        w.member("mean", hist.mean());
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
            if (!hist.buckets[i])
                continue;
            w.beginObject();
            w.member("lo",
                     HistogramData::bucketLow(static_cast<unsigned>(i)));
            w.member("hi",
                     HistogramData::bucketHigh(static_cast<unsigned>(i)));
            w.member("count", hist.buckets[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();

    w.endObject();
}

void
emitHotAddrs(JsonWriter &w, const ObsReport &obs)
{
    w.key("hot_addresses").beginArray();
    for (const HotAddrRow &row : obs.hotAddrs) {
        w.beginObject();
        w.member("addr", row.addr);
        w.member("addr_hex", hexAddr(row.addr));
        w.member("partition", static_cast<std::uint64_t>(row.partition));
        w.member("total", row.total);
        w.member("mean_waiters", row.meanWaiters());
        if (!row.label.empty())
            w.member("label", row.label);
        w.key("by_reason").beginObject();
        for (unsigned i = 0; i < numAbortReasons; ++i)
            if (row.byReason[i])
                w.member(abortReasonName(static_cast<AbortReason>(i)),
                         row.byReason[i]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

void
emitTimeseries(JsonWriter &w, const SampleSeries &samples)
{
    w.key("timeseries").beginObject();
    w.member("interval", samples.interval);
    w.member("num_samples",
             static_cast<std::uint64_t>(samples.numSamples()));
    w.key("cycles").beginArray();
    for (Cycle c : samples.cycles)
        w.value(static_cast<std::uint64_t>(c));
    w.endArray();
    w.key("series").beginObject();
    for (std::size_t i = 0; i < samples.names.size(); ++i) {
        w.key(samples.names[i]).beginArray();
        for (double v : samples.values[i])
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.endObject();
}

/** Open the document and write its schema, meta and config. */
void
emitHead(JsonWriter &w, const MetricsMeta &meta, bool verified)
{
    w.beginObject();
    w.member("schema", metricsSchemaName);
    w.member("version", metricsSchemaVersion);

    w.key("meta").beginObject();
    w.member("bench", meta.bench);
    w.member("protocol", meta.protocol);
    w.member("scale", meta.scale);
    w.member("seed", meta.seed);
    w.member("threads", meta.threads);
    w.member("verified", verified);
    w.endObject();

    w.key("config").beginObject();
    for (const auto &[k, v] : meta.config)
        w.member(k, v);
    w.endObject();
}

} // namespace

std::string
metricsToJson(const MetricsMeta &meta, const StatSet &stats,
              const ObsReport &obs)
{
    JsonWriter w;
    emitHead(w, meta, meta.verified);

    w.key("run").beginObject();
    w.member("cycles", meta.cycles);
    w.member("commits", meta.commits);
    w.member("aborts", meta.aborts);
    w.member("tx_exec_cycles", meta.txExecCycles);
    w.member("tx_wait_cycles", meta.txWaitCycles);
    w.member("xbar_flits", meta.xbarFlits);
    w.member("rollovers", meta.rollovers);
    w.member("max_logical_ts", meta.maxLogicalTs);
    w.member("aborts_per_1k_commits",
             meta.commits ? 1000.0 * static_cast<double>(meta.aborts) /
                                static_cast<double>(meta.commits)
                          : 0.0);
    w.endObject();

    emitReasonTable(w, "aborts_by_reason", obs.abortLanesByReason);
    emitReasonTable(w, "stalls_by_reason", obs.stallsByReason);

    w.key("stall").beginObject();
    w.member("peak_occupancy",
             static_cast<std::uint64_t>(obs.stallPeakOccupancy));
    w.member("mean_waiters_per_addr", obs.meanStallWaiters());
    w.member("depth_samples", obs.stallDepthCount);
    w.endObject();

    if (!meta.checkViolations.empty()) {
        std::uint64_t total = 0;
        for (const auto &[kind, count] : meta.checkViolations)
            total += count;
        w.key("check").beginObject();
        w.member("level", meta.checkLevel);
        w.member("total_violations", total);
        w.key("violations_by_kind").beginObject();
        for (const auto &[kind, count] : meta.checkViolations)
            w.member(kind, count);
        w.endObject();
        w.endObject();
    }

    // Like "check", the tx_trace section only exists when the tracer
    // ran, so untraced documents stay byte-identical to the pre-tracer
    // shape (modulo the version bump).
    if (obs.txTrace.enabled)
        w.key("tx_trace").rawValue(txTraceSectionJson(obs.txTrace));

    w.member("distinct_conflict_addrs", obs.distinctConflictAddrs);
    emitHotAddrs(w, obs);
    emitTimeseries(w, obs.samples);
    emitStats(w, stats);

    w.endObject();
    return w.take();
}

std::string
failureToJson(const MetricsMeta &meta, const MetricsFailure &failure)
{
    JsonWriter w;
    emitHead(w, meta, false);

    w.key("failure").beginObject();
    w.member("status", failure.status);
    w.member("kind", failure.kind);
    w.member("message", failure.message);
    w.member("attempts", failure.attempts);
    if (!failure.diagnosticJson.empty())
        w.key("diagnostic").rawValue(failure.diagnosticJson);
    w.endObject();

    w.endObject();
    return w.take();
}

bool
writeTextFile(const std::string &path, std::string_view content,
              std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        error = "cannot open " + path + " for writing";
        return false;
    }
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), f) == content.size();
    std::fclose(f);
    if (!ok)
        error = "short write to " + path;
    return ok;
}

bool
writeMetricsFile(const std::string &path, const MetricsMeta &meta,
                 const StatSet &stats, const ObsReport &obs,
                 std::string &error)
{
    return writeTextFile(path, metricsToJson(meta, stats, obs) + "\n",
                         error);
}

bool
writeFailureFile(const std::string &path, const MetricsMeta &meta,
                 const MetricsFailure &failure, std::string &error)
{
    return writeTextFile(path, failureToJson(meta, failure) + "\n", error);
}

} // namespace getm
