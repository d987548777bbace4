/**
 * @file
 * Strict parsing of the numeric TEA_* environment knobs.
 *
 * Every numeric knob goes through envUnsigned, so a value that does not
 * fit its field is an error rather than a surprise (strtoull would read
 * TEA_SIM_THREADS=-1 as 2^64-1 threads). README.md's knob table lists
 * every variable read this way.
 */

#ifndef TEA_COMMON_ENV_HH
#define TEA_COMMON_ENV_HH

#include <cstdint>
#include <limits>
#include <type_traits>

namespace tea {

/**
 * The value of environment variable @p name, or @p dflt when it is
 * unset or empty. Anything but plain decimal digits (a sign, a blank,
 * a suffix) or a value above @p max is fatal, naming the variable.
 */
std::uint64_t envUnsignedIn(const char *name, std::uint64_t dflt,
                            std::uint64_t max);

/** Same, bounded by the range of the field type @p T it fills. */
template <typename T>
T
envUnsigned(const char *name, T dflt)
{
    static_assert(std::is_unsigned_v<T>, "knobs are unsigned");
    return static_cast<T>(
        envUnsignedIn(name, dflt, std::numeric_limits<T>::max()));
}

} // namespace tea

#endif // TEA_COMMON_ENV_HH
