#include "common/env.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace tea {

std::uint64_t
envUnsignedIn(const char *name, std::uint64_t dflt, std::uint64_t max)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    std::uint64_t n = 0;
    for (const char *p = v; *p; ++p) {
        if (*p < '0' || *p > '9')
            tea_fatal("%s must be a non-negative decimal integer, got "
                      "'%s'",
                      name, v);
        const unsigned digit = static_cast<unsigned>(*p - '0');
        if (digit > max || n > (max - digit) / 10)
            tea_fatal("%s must be at most %llu, got '%s'", name,
                      static_cast<unsigned long long>(max), v);
        n = n * 10 + digit;
    }
    return n;
}

} // namespace tea
