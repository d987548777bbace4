/**
 * @file
 * Strict parsing of the numeric TEA_* environment knobs (and of the
 * numeric command-line flags, through the same digit parser).
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
 * Parse @p text as a plain decimal integer of at most @p max. Anything
 * else (empty, a sign, a blank, a suffix, a larger value) is fatal,
 * naming @p what: the variable or flag the text came from.
 */
std::uint64_t parseUnsignedIn(const char *what, const char *text,
                              std::uint64_t max);

/**
 * The value of environment variable @p name, or @p dflt when it is
 * unset or empty; otherwise parsed by parseUnsignedIn.
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

/** @p n, or one per hardware thread (at least 1) when @p n is 0: what a
 *  thread count of 0 means for TEA_THREADS and TEA_SIM_THREADS. */
unsigned threadsOrHardware(unsigned n);

} // namespace tea

#endif // TEA_COMMON_ENV_HH
