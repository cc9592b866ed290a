/**
 * @file
 * In-memory span recorder for the traced benchmark pass.
 *
 * Each span is one call into a simulator layer, timed from the
 * benchmark's side of the public API. Spans of one point share a trace
 * id (the point's own span id), and each names its parent, so a
 * layer's self time is its duration minus its children's. Nothing is
 * written until the run ends; writeChromeTrace() then emits the spans
 * as a Chrome/Perfetto "traceEvents" document.
 */

#ifndef GETM_PERFBENCH_SPANS_HH
#define GETM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace getm::perfbench {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a point's root span.
    std::uint64_t trace = 0;  ///< Root span id of the point.
    std::string name;
    Clock::time_point start;
    Clock::time_point end;

    double
    seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

class SpanRecorder
{
  public:
    /** Open a span under @p parent (0 starts a new point trace). */
    std::uint64_t
    open(std::string name, std::uint64_t parent)
    {
        Span span;
        span.id = spans.size() + 1;
        span.parent = parent;
        span.trace = parent ? spans[parent - 1].trace : span.id;
        span.name = std::move(name);
        span.start = Clock::now();
        spans.push_back(std::move(span));
        return spans.back().id;
    }

    void close(std::uint64_t id) { spans[id - 1].end = Clock::now(); }

    /** Summed duration of every span called @p name. */
    double
    totalSeconds(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &span : spans)
            if (span.name == name)
                sum += span.seconds();
        return sum;
    }

    /** Write the spans as Chrome trace events; false on I/O error. */
    bool
    writeChromeTrace(const std::string &path) const
    {
        if (spans.empty())
            return true;
        const Clock::time_point origin = spans.front().start;
        auto micros = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin)
                .count();
        };
        JsonWriter w;
        w.beginObject();
        w.key("traceEvents").beginArray();
        for (const Span &span : spans) {
            w.beginObject();
            w.member("name", span.name);
            w.member("ph", "X");
            w.member("pid", 1);
            w.member("tid", 1);
            w.member("ts", micros(span.start));
            w.member("dur", micros(span.end) - micros(span.start));
            w.key("args").beginObject();
            w.member("span", span.id);
            w.member("parent", span.parent);
            w.member("trace", span.trace);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(path, std::ios::binary);
        out << w.str() << '\n';
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans;
};

/** Opens a span on construction and closes it on scope exit; a null
 *  recorder makes it a no-op, so untraced passes pay nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec_, std::string name, std::uint64_t parent)
        : rec(rec_), spanId(rec ? rec->open(std::move(name), parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (rec)
            rec->close(spanId);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return spanId; }

  private:
    SpanRecorder *rec;
    std::uint64_t spanId;
};

} // namespace getm::perfbench

#endif // GETM_PERFBENCH_SPANS_HH
