#include "varint.hh"

#include "common/logging.hh"

#include <atomic>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tea {

namespace {

/**
 * Decode one varint the way the original per-value reader did:
 * accumulate 7-bit groups while shift < 64 (bits past 63 are silently
 * discarded at shift 63, matching `v |= (b & 0x7f) << shift` on
 * uint64), then reject a continuation bit that survives past the
 * 64-bit boundary or a stream that ends mid-varint. Returns the new
 * cursor, or nullptr on malformed input.
 */
inline const std::uint8_t *decodeOneVarint(const std::uint8_t *p,
                                           const std::uint8_t *end,
                                           std::uint64_t *out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end && shift < 64) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            *out = v;
            return p;
        }
        shift += 7;
    }
    return nullptr; // truncated, or continuation past 64 bits
}

} // namespace

// tea_lint: hot
bool decodeVarintsScalar(const std::uint8_t *p, std::size_t len,
                         std::uint64_t *out, std::size_t *count)
{
    const std::uint8_t *end = p + len;
    std::size_t n = 0;
    while (p < end) {
        const std::uint8_t b = *p;
        if (!(b & 0x80)) { // one-byte value: the common case by far
            out[n++] = b;
            ++p;
            continue;
        }
        if (end - p >= 2 && !(p[1] & 0x80)) { // two-byte value
            out[n++] =
                (b & 0x7fu) | (static_cast<std::uint64_t>(p[1]) << 7);
            p += 2;
            continue;
        }
        p = decodeOneVarint(p, end, &out[n]);
        if (!p)
            return false;
        ++n;
    }
    *count = n;
    return true;
}

#if defined(__x86_64__)

namespace {

/**
 * Widen 16 bytes to 16 uint64 lanes via zero-extending unpack chains
 * (SSE2 has no cvtepu8). The caller guarantees @p dst has room for all
 * 16 values even when fewer are ultimately claimed: every emitted value
 * consumes at least one input byte, so inside a "16+ bytes remain" loop
 * `n + 16 <= len` always holds, and unclaimed slots are overwritten by
 * later emissions or ignored past the final count.
 */
inline void widenStore16(__m128i bytes, std::uint64_t *dst)
{
    const __m128i z = _mm_setzero_si128();
    const __m128i w0 = _mm_unpacklo_epi8(bytes, z); // u16: bytes 0..7
    const __m128i w1 = _mm_unpackhi_epi8(bytes, z); // u16: bytes 8..15
    const __m128i d0 = _mm_unpacklo_epi16(w0, z);   // u32: bytes 0..3
    const __m128i d1 = _mm_unpackhi_epi16(w0, z);   // u32: bytes 4..7
    const __m128i d2 = _mm_unpacklo_epi16(w1, z);   // u32: bytes 8..11
    const __m128i d3 = _mm_unpackhi_epi16(w1, z);   // u32: bytes 12..15
    __m128i *o = reinterpret_cast<__m128i *>(dst);
    _mm_storeu_si128(o + 0, _mm_unpacklo_epi32(d0, z));
    _mm_storeu_si128(o + 1, _mm_unpackhi_epi32(d0, z));
    _mm_storeu_si128(o + 2, _mm_unpacklo_epi32(d1, z));
    _mm_storeu_si128(o + 3, _mm_unpackhi_epi32(d1, z));
    _mm_storeu_si128(o + 4, _mm_unpacklo_epi32(d2, z));
    _mm_storeu_si128(o + 5, _mm_unpackhi_epi32(d2, z));
    _mm_storeu_si128(o + 6, _mm_unpacklo_epi32(d3, z));
    _mm_storeu_si128(o + 7, _mm_unpackhi_epi32(d3, z));
}

} // namespace

// tea_lint: hot
bool decodeVarintsSse2(const std::uint8_t *p, std::size_t len,
                       std::uint64_t *out, std::size_t *count)
{
    const std::uint8_t *end = p + len;
    std::size_t n = 0;
    while (end - p >= 16) {
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        // Widen all 16 bytes unconditionally (see widenStore16); the
        // continuation-bit mask then decides how many are claimed.
        widenStore16(bytes, out + n);
        const unsigned mask =
            static_cast<unsigned>(_mm_movemask_epi8(bytes)) & 0xffffu;
        if (mask == 0) { // 16 single-byte values at once
            n += 16;
            p += 16;
            continue;
        }
        // Claim the leading run of single-byte values from the widened
        // stores, then drain the REST of the block off the same mask —
        // no reload, no re-widen: two- and three-byte varints (the
        // dominant multi-byte cases) decode in place with the width
        // selected arithmetically from the continuation mask (so
        // alternating widths cost no mispredicts; p[off+2] may be read
        // before the select discards it, off < 14 keeps it in-window),
        // and the singles between them are emitted scalarly because
        // value compression has shifted them off their widened slots.
        unsigned off = static_cast<unsigned>(__builtin_ctz(mask));
        n += off;
        bool advanced = false; // p advanced by the generic fallback
        while (off < 16) {
            if (!((mask >> off) & 1u)) {
                out[n++] = p[off++];
                continue;
            }
            const unsigned tail = (mask >> off) >> 1;
            if (off < 14 && (tail & 3u) != 3u) {
                const std::uint64_t b1c = tail & 1u; // 2nd byte continues?
                const std::uint64_t m = ~(b1c - 1); // all-ones: 3-byte
                out[n++] =
                    (p[off] & 0x7fu) |
                    ((p[off + 1] & (0xffu ^ (0x80u & m))) << 7) |
                    ((static_cast<std::uint64_t>(p[off + 2]) << 14) & m);
                off += 2 + static_cast<unsigned>(b1c);
            } else {
                const std::uint8_t *q =
                    decodeOneVarint(p + off, end, &out[n]);
                if (!q)
                    return false;
                ++n;
                p = q;
                advanced = true;
                break;
            }
        }
        if (!advanced)
            p += off;
    }
    while (p < end) {
        const std::uint8_t b = *p;
        if (!(b & 0x80)) {
            out[n++] = b;
            ++p;
            continue;
        }
        p = decodeOneVarint(p, end, &out[n]);
        if (!p)
            return false;
        ++n;
    }
    *count = n;
    return true;
}

// tea_lint: hot
__attribute__((target("avx2"))) bool
decodeVarintsAvx2(const std::uint8_t *p, std::size_t len,
                  std::uint64_t *out, std::size_t *count)
{
    const std::uint8_t *end = p + len;
    std::size_t n = 0;
    while (end - p >= 32) {
        const __m256i bytes =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        const unsigned mask =
            static_cast<unsigned>(_mm256_movemask_epi8(bytes));
        // Widen with zero-extending converts, speculatively: the first
        // 8 output slots always (in-bounds for the same reason as
        // widenStore16 — every value consumes at least one input byte,
        // so n + 32 <= len here), the remaining 24 only when at least
        // the leading 9 bytes are single-byte values and could need
        // them. On delta streams with frequent multi-byte varints the
        // window usually breaks early, and the skipped stores are the
        // bulk of the emit cost.
        const __m128i lo = _mm256_castsi256_si128(bytes);
        __m256i *o = reinterpret_cast<__m256i *>(out + n);
        _mm256_storeu_si256(o + 0, _mm256_cvtepu8_epi64(lo));
        _mm256_storeu_si256(o + 1,
                            _mm256_cvtepu8_epi64(_mm_srli_si128(lo, 4)));
        if ((mask & 0x1ffu) == 0) {
            const __m128i hi = _mm256_extracti128_si256(bytes, 1);
            _mm256_storeu_si256(
                o + 2, _mm256_cvtepu8_epi64(_mm_srli_si128(lo, 8)));
            _mm256_storeu_si256(
                o + 3, _mm256_cvtepu8_epi64(_mm_srli_si128(lo, 12)));
            _mm256_storeu_si256(o + 4, _mm256_cvtepu8_epi64(hi));
            _mm256_storeu_si256(
                o + 5, _mm256_cvtepu8_epi64(_mm_srli_si128(hi, 4)));
            _mm256_storeu_si256(
                o + 6, _mm256_cvtepu8_epi64(_mm_srli_si128(hi, 8)));
            _mm256_storeu_si256(
                o + 7, _mm256_cvtepu8_epi64(_mm_srli_si128(hi, 12)));
        }
        if (mask == 0) {
            n += 32;
            p += 32;
            continue;
        }
        // Claim the leading singles from the widened stores, then
        // drain the rest of the block off the same mask — no reload,
        // no re-widen (see the SSE2 kernel for the full rationale).
        // Two- and three-byte varints (the dominant multi-byte cases:
        // PC jumps and larger deltas) decode in place with the width
        // selected arithmetically from the continuation mask, so
        // alternating widths cost no branch mispredicts; p[off + 2]
        // may be read before the select discards it, off < 30 keeps
        // it inside this window.
        unsigned off = static_cast<unsigned>(__builtin_ctz(mask));
        n += off;
        bool advanced = false; // p advanced by the generic fallback
        while (off < 32) {
            if (!((mask >> off) & 1u)) {
                out[n++] = p[off++];
                continue;
            }
            const unsigned tail = (mask >> off) >> 1; // no UB: off < 32
            if (off < 30 && (tail & 3u) != 3u) {
                const std::uint64_t b1c = tail & 1u; // 2nd byte continues?
                const std::uint64_t m = ~(b1c - 1); // all-ones: 3-byte
                out[n++] =
                    (p[off] & 0x7fu) |
                    ((p[off + 1] & (0xffu ^ (0x80u & m))) << 7) |
                    ((static_cast<std::uint64_t>(p[off + 2]) << 14) & m);
                off += 2 + static_cast<unsigned>(b1c);
            } else {
                const std::uint8_t *q =
                    decodeOneVarint(p + off, end, &out[n]);
                if (!q)
                    return false;
                ++n;
                p = q;
                advanced = true;
                break;
            }
        }
        if (!advanced)
            p += off;
    }
    return decodeVarintsSse2(p, static_cast<std::size_t>(end - p),
                             out + n, count)
               ? (*count += n, true)
               : false;
}

#else // !__x86_64__

bool decodeVarintsSse2(const std::uint8_t *p, std::size_t len,
                       std::uint64_t *out, std::size_t *count)
{
    return decodeVarintsScalar(p, len, out, count);
}

bool decodeVarintsAvx2(const std::uint8_t *, std::size_t, std::uint64_t *,
                       std::size_t *)
{
    tea_fatal("varint: AVX2 kernel invoked on a non-x86-64 build");
}

#endif // __x86_64__

namespace {

bool hostSupports(VarintKernel k)
{
    switch (k) {
    case VarintKernel::Scalar:
        return true;
    case VarintKernel::Sse2:
#if defined(__x86_64__)
        return true; // SSE2 is the x86-64 baseline
#else
        return false;
#endif
    case VarintKernel::Avx2:
#if defined(__x86_64__)
        return __builtin_cpu_supports("avx2");
#else
        return false;
#endif
    }
    tea_fatal("varint: unknown kernel %d", static_cast<int>(k));
}

VarintKernel pickKernel()
{
    if (hostSupports(VarintKernel::Avx2))
        return VarintKernel::Avx2;
    if (hostSupports(VarintKernel::Sse2))
        return VarintKernel::Sse2;
    return VarintKernel::Scalar;
}

std::atomic<VarintKernel> &kernelSlot()
{
    static std::atomic<VarintKernel> slot{pickKernel()};
    return slot;
}

} // namespace

const char *varintKernelName(VarintKernel k)
{
    switch (k) {
    case VarintKernel::Scalar:
        return "scalar";
    case VarintKernel::Sse2:
        return "sse2";
    case VarintKernel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool varintKernelSupported(VarintKernel k)
{
    return hostSupports(k);
}

VarintKernel activeVarintKernel()
{
    // relaxed: the slot holds a self-contained enum; whichever kernel a
    // reader observes is valid, and tests that switch kernels do so on
    // one thread before dispatching work.
    return kernelSlot().load(std::memory_order_relaxed);
}

void setVarintKernel(VarintKernel k)
{
    if (!hostSupports(k))
        tea_fatal("varint: kernel %s unsupported on this host",
                  varintKernelName(k));
    // relaxed: same contract as activeVarintKernel() above — the enum
    // is the entire payload, no memory is published alongside it.
    kernelSlot().store(k, std::memory_order_relaxed);
}

bool decodeVarints(const std::uint8_t *p, std::size_t len,
                   std::uint64_t *out, std::size_t *count)
{
    switch (activeVarintKernel()) {
    case VarintKernel::Avx2:
        return decodeVarintsAvx2(p, len, out, count);
    case VarintKernel::Sse2:
        return decodeVarintsSse2(p, len, out, count);
    case VarintKernel::Scalar:
        return decodeVarintsScalar(p, len, out, count);
    }
    return decodeVarintsScalar(p, len, out, count);
}

} // namespace tea
