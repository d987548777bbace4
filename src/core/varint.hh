/**
 * @file
 * Bulk LEB128 varint decode kernels for the trace codec.
 *
 * The on-disk codec (core/trace_codec) stores every field stream as a
 * run of LEB128 varints; with delta+zigzag coding the overwhelming
 * majority of values fit in a single byte, which makes the decode loop
 * a branch-per-byte bottleneck. These kernels decode a whole stream in
 * one pass: the vector kernels load 16/32 bytes at a time, derive the
 * continuation-bit mask with a single movemask, and emit the leading
 * run of single-byte values wholesale, falling back to a scalar step
 * only for the (rare) multi-byte varint that interrupts the run.
 *
 * All kernels are bit-identical by contract: for any input bytes —
 * including adversarial ones — they produce the same values and the
 * same accept/reject verdict as the reference scalar kernel, which in
 * turn preserves the semantics of the original per-value reader
 * (values wider than 64 bits lose their high bits silently, exactly
 * like `v |= (b & 0x7f) << shift` does; a varint still carrying a
 * continuation bit at shift 63, or truncated by the end of the
 * stream, is malformed). The randomized differential suite in
 * tests/test_simd_codec.cc enforces this equivalence.
 *
 * Kernel selection is a process-wide runtime dispatch: the best kernel
 * the host CPU supports is picked once (tests and benchmarks narrow it
 * with setVarintKernel()), and plain, sanitizer and Release builds all
 * produce the same bytes whichever kernel runs.
 */

#ifndef TEA_CORE_VARINT_HH
#define TEA_CORE_VARINT_HH

#include <cstddef>
#include <cstdint>

namespace tea {

/** One bulk-decode implementation. */
enum class VarintKernel
{
    Scalar, ///< portable reference loop
    Sse2,   ///< 16-byte movemask runs (x86-64 baseline)
    Avx2,   ///< 32-byte movemask runs (runtime-detected)
};

/** Short name of a kernel ("scalar", "sse2", "avx2"). */
const char *varintKernelName(VarintKernel k);

/** True when this build/host can execute @p k. */
bool varintKernelSupported(VarintKernel k);

/**
 * The kernel bulk decodes currently dispatch to: the best supported
 * one, unless setVarintKernel() narrowed the choice.
 */
VarintKernel activeVarintKernel();

/**
 * Force dispatch to @p k (fatal when unsupported on this host). For
 * tests and benchmarks; normal callers rely on the automatic pick.
 */
void setVarintKernel(VarintKernel k);

/**
 * Decode every varint in [@p p, @p p + @p len) into @p out, which must
 * have room for @p len values (one byte per value is the densest
 * possible stream).
 *
 * @param count set to the number of values decoded on success
 * @return false when the stream ends inside a varint or a varint
 *         carries a continuation bit past the 64-bit boundary
 */
bool decodeVarints(const std::uint8_t *p, std::size_t len,
                   std::uint64_t *out, std::size_t *count);

/** The reference kernel, callable directly (differential tests). */
bool decodeVarintsScalar(const std::uint8_t *p, std::size_t len,
                         std::uint64_t *out, std::size_t *count);

/** The SSE2 kernel; falls back to scalar off x86-64. */
bool decodeVarintsSse2(const std::uint8_t *p, std::size_t len,
                       std::uint64_t *out, std::size_t *count);

/**
 * The AVX2 kernel; only callable when varintKernelSupported(Avx2)
 * (fatal otherwise — the caller owns the runtime check).
 */
bool decodeVarintsAvx2(const std::uint8_t *p, std::size_t len,
                       std::uint64_t *out, std::size_t *count);

} // namespace tea

#endif // TEA_CORE_VARINT_HH
