#include "common/fingerprint.hh"

#include <array>

#include "common/logging.hh"

namespace tea {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables for polynomial 0xEDB88320. Row 0 is the classic
 * bytewise table; row k advances a byte's contribution past k more
 * zero bytes, so one 8-byte word folds in with eight independent
 * lookups instead of a chain of eight dependent ones.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t n = 0; n < 256; ++n)
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

/** Little-endian 64-bit load from unaligned @p p. */
std::uint64_t
loadLe64(const unsigned char *p)
{
    std::uint64_t w = 0;
    for (int i = 7; i >= 0; --i)
        w = (w << 8) | p[i];
    return w;
}

} // namespace

std::uint32_t
crc32(std::uint32_t crc, const void *data, std::size_t bytes)
{
    const CrcTables &t = crcTables;
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (; bytes >= 8; p += 8, bytes -= 8) {
        const std::uint64_t w = loadLe64(p) ^ c;
        c = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^
            t[5][(w >> 16) & 0xFFu] ^ t[4][(w >> 24) & 0xFFu] ^
            t[3][(w >> 32) & 0xFFu] ^ t[2][(w >> 40) & 0xFFu] ^
            t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
    }
    for (; bytes > 0; ++p, --bytes)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
hashHex(std::uint64_t h)
{
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

} // namespace tea
