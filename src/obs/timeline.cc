#include "obs/timeline.hh"

#include <fstream>
#include <locale>
#include <sstream>

#include "common/json.hh"

namespace getm {

std::string
Timeline::toJson() const
{
    std::ostringstream out;
    out.imbue(std::locale::classic());
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const Event &event : events) {
        if (!first)
            out << ",";
        first = false;
        out << "\n{\"pid\":" << event.pid << ",\"tid\":" << event.tid
            << ",\"ts\":" << event.ts;
        switch (event.kind) {
          case Kind::Begin:
            out << ",\"ph\":\"B\",\"name\":\"" << jsonEscape(event.name)
                << "\"";
            break;
          case Kind::End:
            out << ",\"ph\":\"E\"";
            break;
          case Kind::Instant:
            out << ",\"ph\":\"i\",\"s\":\"t\",\"name\":\""
                << jsonEscape(event.name) << "\"";
            break;
          case Kind::Complete:
            out << ",\"ph\":\"X\",\"dur\":"
                << static_cast<std::uint64_t>(event.value)
                << ",\"name\":\"" << jsonEscape(event.name) << "\"";
            break;
          case Kind::Counter:
            out << ",\"ph\":\"C\",\"name\":\"" << jsonEscape(event.name)
                << "\",\"args\":{\"value\":" << jsonNumber(event.value)
                << "}";
            break;
          case Kind::ProcessName:
            out << ",\"ph\":\"M\",\"name\":\"process_name\","
                   "\"args\":{\"name\":\""
                << jsonEscape(event.name) << "\"}";
            break;
          case Kind::ThreadName:
            out << ",\"ph\":\"M\",\"name\":\"thread_name\","
                   "\"args\":{\"name\":\""
                << jsonEscape(event.name) << "\"}";
            break;
        }
        out << "}";
    }
    out << "\n]}\n";
    return out.str();
}

bool
Timeline::writeJson(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        return false;
    file << toJson();
    return static_cast<bool>(file);
}

} // namespace getm
