#include "common/debug.hh"

#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <string>

namespace getm {
namespace debug {

namespace {

const char *const categoryNames[] = {"getm", "wtm", "eapg", "core", "mem"};

struct Flags
{
    bool on[static_cast<unsigned>(Category::NumCategories)] = {};

    Flags()
    {
        const char *env = std::getenv("GETM_DEBUG");
        if (!env)
            return;
        std::string list(env);
        list += ',';
        std::string token;
        for (char ch : list) {
            if (ch != ',') {
                token += ch;
                continue;
            }
            if (token == "all") {
                for (bool &flag : on)
                    flag = true;
            } else {
                for (unsigned i = 0;
                     i < static_cast<unsigned>(Category::NumCategories);
                     ++i)
                    if (token == categoryNames[i])
                        on[i] = true;
            }
            token.clear();
        }
    }
};

Flags &
flags()
{
    static Flags instance;
    return instance;
}

} // namespace

bool
enabled(Category category)
{
    return flags().on[static_cast<unsigned>(category)];
}

void
tracef(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace debug
} // namespace getm
