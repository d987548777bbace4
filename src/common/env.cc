#include "common/env.hh"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "common/logging.hh"

namespace tea {

std::uint64_t
parseUnsignedIn(const char *what, const char *text, std::uint64_t max)
{
    if (!*text)
        tea_fatal("%s must be a non-negative decimal integer, got ''",
                  what);
    std::uint64_t n = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            tea_fatal("%s must be a non-negative decimal integer, got "
                      "'%s'",
                      what, text);
        const unsigned digit = static_cast<unsigned>(*p - '0');
        if (digit > max || n > (max - digit) / 10)
            tea_fatal("%s must be at most %llu, got '%s'", what,
                      static_cast<unsigned long long>(max), text);
        n = n * 10 + digit;
    }
    return n;
}

std::uint64_t
envUnsignedIn(const char *name, std::uint64_t dflt, std::uint64_t max)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    return parseUnsignedIn(name, v, max);
}

unsigned
threadsOrHardware(unsigned n)
{
    return n != 0 ? n : std::max(1u, std::thread::hardware_concurrency());
}

} // namespace tea
