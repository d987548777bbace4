/**
 * @file
 * Differential tests of the SIMD varint kernels and the batched decode
 * path. The codec contract (core/varint.hh) is that every kernel is
 * bit-identical to the reference scalar loop on *any* input bytes —
 * including adversarial ones — so these tests fuzz randomized streams
 * (continuation-bit runs, max-width varints, truncated tails,
 * misaligned buffers, block-boundary straddles) through every kernel
 * the host supports and require identical verdicts and values. On top
 * of the raw kernels, whole chunk frames with extreme delta patterns
 * must round-trip identically under every kernel, and a warm
 * trace-cache replay must produce bit-identical Pics whether its
 * decoded chunks go to inline observers or to the replay pool.
 *
 * Runs under the asan-ubsan preset (label: sanitize), which is what
 * turns the SIMD kernels' speculative-store bounds into hard failures.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "analysis/runner.hh"
#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "core/varint.hh"
#include "profilers/golden.hh"
#include "profilers/pics.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

/** Restore the process-wide varint kernel on scope exit. */
struct KernelGuard
{
    VarintKernel prev;
    KernelGuard() : prev(activeVarintKernel()) {}
    ~KernelGuard() { setVarintKernel(prev); }
};

/** Every kernel this host can execute, scalar first. */
std::vector<VarintKernel>
supportedKernels()
{
    std::vector<VarintKernel> ks{VarintKernel::Scalar};
    if (varintKernelSupported(VarintKernel::Sse2))
        ks.push_back(VarintKernel::Sse2);
    if (varintKernelSupported(VarintKernel::Avx2))
        ks.push_back(VarintKernel::Avx2);
    return ks;
}

bool
runKernel(VarintKernel k, const std::uint8_t *p, std::size_t len,
          std::uint64_t *out, std::size_t *count)
{
    switch (k) {
      case VarintKernel::Scalar:
        return decodeVarintsScalar(p, len, out, count);
      case VarintKernel::Sse2:
        return decodeVarintsSse2(p, len, out, count);
      case VarintKernel::Avx2:
        return decodeVarintsAvx2(p, len, out, count);
    }
    return false;
}

/**
 * Decode @p bytes with every supported kernel and require the same
 * verdict as the scalar reference — and, on acceptance, the same count
 * and the same values. The poison fill makes a kernel that reports n
 * values but wrote fewer fail the comparison.
 */
void
expectKernelsAgree(const std::vector<std::uint8_t> &bytes)
{
    const std::size_t room = bytes.size() + 1; // len values max; +1 for n=0
    std::vector<std::uint64_t> ref(room, 0xabad1deacafeull);
    std::size_t refCount = 0;
    const bool refOk =
        decodeVarintsScalar(bytes.data(), bytes.size(), ref.data(),
                            &refCount);

    for (VarintKernel k : supportedKernels()) {
        if (k == VarintKernel::Scalar)
            continue;
        SCOPED_TRACE(varintKernelName(k));
        std::vector<std::uint64_t> out(room, 0xabad1deacafeull);
        std::size_t count = 0;
        const bool ok =
            runKernel(k, bytes.data(), bytes.size(), out.data(), &count);
        ASSERT_EQ(ok, refOk);
        if (!refOk)
            continue; // rejected streams leave out/count unspecified
        ASSERT_EQ(count, refCount);
        for (std::size_t i = 0; i < count; ++i)
            ASSERT_EQ(out[i], ref[i]) << "value " << i;
    }
}

/** Canonical LEB128 append of @p v. */
void
appendVarint(std::vector<std::uint8_t> &bytes, std::uint64_t v)
{
    while (v >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(v));
}

/** Remove every regular file in @p dir, then the directory itself. */
void
removeTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

struct TempCacheDir
{
    std::string path;
    TempCacheDir()
    {
        char tmpl[] = "/tmp/tea-simd-codec-test-XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }
    ~TempCacheDir()
    {
        if (!path.empty())
            removeTree(path);
    }
};

/** Assert two Pics are bit-identical (exact doubles, same cells). */
void
expectPicsIdentical(const Pics &a, const Pics &b)
{
    EXPECT_EQ(a.total(), b.total());
    auto sorted = [](const Pics &p) {
        std::vector<PicsComponent> cs = p.components();
        std::sort(cs.begin(), cs.end(),
                  [](const PicsComponent &x, const PicsComponent &y) {
                      return x.unit != y.unit ? x.unit < y.unit
                                              : x.signature < y.signature;
                  });
        return cs;
    };
    std::vector<PicsComponent> ca = sorted(a);
    std::vector<PicsComponent> cb = sorted(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].unit, cb[i].unit);
        EXPECT_EQ(ca[i].signature, cb[i].signature);
        EXPECT_EQ(ca[i].cycles, cb[i].cycles);
    }
}

void
expectExperimentsIdentical(const ExperimentResult &ref,
                           const ExperimentResult &got)
{
    EXPECT_EQ(ref.stats.cycles, got.stats.cycles);
    expectPicsIdentical(ref.golden->pics(), got.golden->pics());
    ASSERT_EQ(ref.techniques.size(), got.techniques.size());
    for (std::size_t i = 0; i < ref.techniques.size(); ++i) {
        SCOPED_TRACE(ref.techniques[i].config.name);
        EXPECT_EQ(ref.techniques[i].samplesTaken,
                  got.techniques[i].samplesTaken);
        expectPicsIdentical(ref.techniques[i].pics,
                            got.techniques[i].pics);
    }
}

} // namespace

TEST(SimdVarint, RandomBytesAgreeAcrossKernels)
{
    // Purely random bytes: mostly malformed streams (truncation inside
    // a varint, continuation past 64 bits); every kernel must reach the
    // same verdict, and the same values when a stream happens to parse.
    Rng rng(0x51);
    for (unsigned round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> bytes(rng.below(200));
        for (std::uint8_t &b : bytes)
            b = static_cast<std::uint8_t>(rng.next());
        expectKernelsAgree(bytes);
    }
}

TEST(SimdVarint, ContinuationRunsAndTruncatedTails)
{
    // Runs of 0x80 continuation bytes of every interesting length
    // (crossing 7-bit group boundaries, the 64-bit overflow point, and
    // the SIMD block widths), terminated or truncated at the end.
    Rng rng(0x52);
    for (unsigned round = 0; round < 400; ++round) {
        std::vector<std::uint8_t> bytes;
        const unsigned pieces = 1 + rng.below(20);
        for (unsigned p = 0; p < pieces; ++p) {
            const unsigned contRun = rng.below(13); // up to 12 > max valid
            for (unsigned i = 0; i < contRun; ++i)
                bytes.push_back(0x80u |
                                static_cast<std::uint8_t>(rng.below(128)));
            bytes.push_back(static_cast<std::uint8_t>(rng.below(128)));
        }
        if (rng.chance(0.3) && !bytes.empty())
            bytes.pop_back(); // truncate inside the final varint
        expectKernelsAgree(bytes);
    }
}

TEST(SimdVarint, MaxWidthValues)
{
    // Canonical encodings of the widest values (10 bytes for ~0ull),
    // mixed with single-byte values so wide varints land at arbitrary
    // positions inside the 16/32-byte SIMD blocks.
    Rng rng(0x53);
    for (unsigned round = 0; round < 200; ++round) {
        std::vector<std::uint8_t> bytes;
        const unsigned n = 1 + rng.below(100);
        for (unsigned i = 0; i < n; ++i) {
            switch (rng.below(4)) {
              case 0:
                appendVarint(bytes, ~0ull - rng.below(3));
                break;
              case 1:
                appendVarint(bytes, 1ull << (rng.below(64)));
                break;
              case 2:
                appendVarint(bytes, rng.below(1u << 21));
                break;
              default:
                appendVarint(bytes, rng.below(128));
                break;
            }
        }
        expectKernelsAgree(bytes);
    }
}

TEST(SimdVarint, BlockBoundaryStraddles)
{
    // A multi-byte varint placed at every offset in [0, 40): straddles
    // every position relative to the 16-byte (SSE2) and 32-byte (AVX2)
    // block loads, including the block's last byte.
    for (unsigned width = 2; width <= 10; ++width) {
        for (unsigned off = 0; off < 40; ++off) {
            std::vector<std::uint8_t> bytes(off, 0x01);
            for (unsigned i = 0; i + 1 < width; ++i)
                bytes.push_back(0x80u | static_cast<std::uint8_t>(i + 1));
            bytes.push_back(0x03);
            for (unsigned i = 0; i < 40; ++i)
                bytes.push_back(0x02);
            expectKernelsAgree(bytes);
        }
    }
}

TEST(SimdVarint, MisalignedBuffers)
{
    // The mmap path hands the kernels pointers at arbitrary alignment
    // (frame payloads start wherever the previous frame ended). Shift
    // the same stream to different (mis)alignments and require
    // identical results at each.
    Rng rng(0x54);
    std::vector<std::uint8_t> stream;
    for (unsigned i = 0; i < 500; ++i) {
        if (rng.chance(0.15))
            appendVarint(stream, rng.next());
        else
            appendVarint(stream, rng.below(128));
    }
    for (std::size_t off : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                            std::size_t{13}}) {
        SCOPED_TRACE(off);
        // Heap-allocate so ASan guards the edges of the shifted copy.
        std::vector<std::uint8_t> shifted(off + stream.size());
        std::memcpy(shifted.data() + off, stream.data(), stream.size());
        std::size_t refCount = 0;
        std::vector<std::uint64_t> ref(stream.size() + 1);
        ASSERT_TRUE(decodeVarintsScalar(shifted.data() + off,
                                        stream.size(), ref.data(),
                                        &refCount));
        for (VarintKernel k : supportedKernels()) {
            SCOPED_TRACE(varintKernelName(k));
            std::vector<std::uint64_t> out(stream.size() + 1);
            std::size_t count = 0;
            ASSERT_TRUE(runKernel(k, shifted.data() + off, stream.size(),
                                  out.data(), &count));
            ASSERT_EQ(count, refCount);
            for (std::size_t i = 0; i < count; ++i)
                ASSERT_EQ(out[i], ref[i]);
        }
    }
}

namespace {

/**
 * A structurally valid chunk whose field values are chosen to make the
 * codec's delta streams pathological: cycles and sequence numbers jump
 * between tiny and near-2^64 values, so the zigzag deltas exercise
 * every varint width up to the 10-byte maximum, back to back.
 */
TraceChunk
extremeChunk(Rng &rng, std::size_t count)
{
    TraceChunk c;
    c.events.reserve(count);
    Cycle cycle = 0;
    SeqNum seq = 1;
    bool swing = false;
    auto wildPc = [&]() {
        return static_cast<InstIndex>(
            swing ? 0xfffffff0u - rng.below(8) : rng.below(64));
    };
    for (std::size_t i = 0; i < count; ++i) {
        swing = !swing;
        cycle += swing ? (0x7fffffffffffffull + rng.below(1024)) : 1;
        seq += swing ? (0x3fffffffffffffull + rng.below(1024)) : 1;
        TraceEvent ev;
        switch (rng.below(5)) {
          case 0: {
            ev.kind = TraceEventKind::Cycle;
            ev.p.cycle = CycleRecord{};
            CycleRecord &r = ev.p.cycle;
            r.cycle = cycle;
            r.state = static_cast<CommitState>(rng.below(4));
            r.numCommitted =
                r.state == CommitState::Compute
                    ? static_cast<std::uint8_t>(rng.range(1, 8))
                    : 0;
            for (unsigned u = 0; u < r.numCommitted; ++u) {
                r.committed[u].seq = seq += 0x1fffffffffffull;
                r.committed[u].pc = wildPc();
                r.committed[u].psv =
                    Psv(static_cast<std::uint16_t>(rng.below(512)));
            }
            r.headValid = r.state == CommitState::Stalled;
            if (r.headValid) {
                r.headSeq = seq + 0x7ffffffffull;
                r.headPc = wildPc();
            }
            r.lastValid = rng.chance(0.9);
            if (r.lastValid) {
                r.lastPc = wildPc();
                r.lastPsv =
                    Psv(static_cast<std::uint16_t>(rng.below(512)));
            }
            break;
          }
          case 1:
            ev.kind = TraceEventKind::Dispatch;
            ev.p.uop = UopRecord{seq, wildPc(), cycle};
            break;
          case 2:
            ev.kind = TraceEventKind::Fetch;
            ev.p.uop = UopRecord{seq, wildPc(), cycle};
            break;
          case 3:
            ev.kind = TraceEventKind::Retire;
            ev.p.retire = RetireRecord{
                seq, wildPc(),
                Psv(static_cast<std::uint16_t>(rng.below(512))), cycle};
            break;
          default:
            ev.kind = TraceEventKind::End;
            ev.p.end = cycle;
            break;
        }
        if (ev.kind == TraceEventKind::Cycle)
            ++c.cycleRecords;
        c.events.push_back(ev);
    }
    return c;
}

} // namespace

TEST(SimdCodec, ExtremeDeltaChunksRoundTripUnderEveryKernel)
{
    KernelGuard guard;
    Rng rng(0xdec0de);
    for (unsigned round = 0; round < 10; ++round) {
        TraceChunk chunk = extremeChunk(rng, 64 + rng.below(512));
        std::vector<std::uint8_t> frame;
        encodeChunk(chunk, frame);

        for (VarintKernel k : supportedKernels()) {
            SCOPED_TRACE(varintKernelName(k));
            setVarintKernel(k);
            ChunkDecoder decoder;
            TraceChunk back;
            std::size_t consumed = 0;
            std::string why;
            ASSERT_TRUE(decoder.decode(frame.data(), frame.size(), back,
                                       &consumed, &why))
                << why;
            EXPECT_EQ(consumed, frame.size());
            EXPECT_EQ(back.cycleRecords, chunk.cycleRecords);
            ASSERT_EQ(back.events.size(), chunk.events.size());
            for (std::size_t i = 0; i < chunk.events.size(); ++i)
                ASSERT_TRUE(
                    eventsEquivalent(chunk.events[i], back.events[i]))
                    << "event " << i;
        }
    }
}

TEST(SimdCodec, MultiFrameStreamsDecodeIdenticallyAtAnyOffset)
{
    // Several frames concatenated (delta state must reset per frame),
    // the whole stream then shifted to misaligned offsets like an
    // arbitrary position inside an mmap'd cache file.
    KernelGuard guard;
    Rng rng(0xf8a);
    std::vector<TraceChunk> chunks;
    std::vector<std::uint8_t> stream;
    for (unsigned f = 0; f < 6; ++f) {
        chunks.push_back(extremeChunk(rng, 32 + rng.below(160)));
        encodeChunk(chunks.back(), stream);
    }

    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{5}}) {
        std::vector<std::uint8_t> shifted(off + stream.size());
        std::memcpy(shifted.data() + off, stream.data(), stream.size());
        for (VarintKernel k : supportedKernels()) {
            SCOPED_TRACE(varintKernelName(k));
            setVarintKernel(k);
            ChunkDecoder decoder;
            std::size_t at = off;
            for (const TraceChunk &want : chunks) {
                TraceChunk back;
                std::size_t consumed = 0;
                std::string why;
                ASSERT_TRUE(decoder.decode(shifted.data() + at,
                                           shifted.size() - at, back,
                                           &consumed, &why))
                    << why;
                at += consumed;
                ASSERT_EQ(back.events.size(), want.events.size());
                for (std::size_t i = 0; i < want.events.size(); ++i)
                    ASSERT_TRUE(eventsEquivalent(want.events[i],
                                                 back.events[i]))
                        << "event " << i;
            }
            EXPECT_EQ(at, off + stream.size());
        }
    }
}

TEST(SimdReplay, WarmReplayBitIdenticalAcrossConsumers)
{
    // A warm hit decodes serially in the producer and hands chunks to
    // either consumer: the inline observers (threads = 1, one chunk in
    // flight) or the replay pool (threads = 3, several nextChunk()
    // chunks in flight through the decoder's storage ring). Both must
    // reproduce the cold run exactly.
    TempCacheDir dir;
    RunnerOptions opts;
    opts.chunkEvents = 256; // many small frames: the ring wraps often
    opts.cache.enabled = true;
    opts.cache.dir = dir.path;

    auto run = [&](unsigned threads) {
        RunnerOptions o = opts;
        o.threads = threads;
        return runWorkload(workloads::aluLoop(3000), standardTechniques(),
                           o);
    };

    ExperimentResult cold = run(1);
    ASSERT_FALSE(cold.replay.cacheHit);

    for (unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(::testing::Message() << threads << " thread(s)");
        ExperimentResult warm = run(threads);
        ASSERT_TRUE(warm.replay.cacheHit);
        // The split-seconds contract: a warm hit spends no simulate
        // time, and decode time is accounted separately from replay.
        EXPECT_EQ(warm.replay.simulateSeconds, 0.0);
        EXPECT_GT(warm.replay.decodeSeconds, 0.0);
        expectExperimentsIdentical(cold, warm);
    }
}

namespace {

/** FNV-1a of @p bytes. */
std::uint64_t
bytesDigest(const std::vector<std::uint8_t> &bytes)
{
    Fnv1a h;
    h.addBytes(bytes.data(), bytes.size());
    return h.value();
}

} // namespace

TEST(SimdCodec, EncodedFramesArePinned)
{
    // Frames are the on-disk format: an entry an earlier build wrote
    // must stay a cache hit, so the bytes may change only together
    // with traceCodecVersion. The digest was recorded with the
    // allocate-per-call encoder that predates scratch reuse.
    static_assert(traceCodecVersion == 1,
                  "re-pin the frame digest when the codec version moves");
    Rng rng(0x7ea5eed);
    std::vector<std::uint8_t> frames;
    for (unsigned i = 0; i < 12; ++i)
        encodeChunk(extremeChunk(rng, rng.below(900)), frames);
    EXPECT_EQ(frames.size(), 112385u);
    EXPECT_EQ(bytesDigest(frames), 0x182159f26fa142bcull);
}

TEST(SimdCodec, EncoderScratchCarriesNothingBetweenCalls)
{
    // One thread encodes large and tiny chunks alternately, so a reused
    // stream buffer that kept bytes from the previous call would show.
    // Each frame must equal the one a fresh thread (fresh scratch)
    // writes for the same chunk, appended after unrelated bytes.
    Rng rng(0xa17e);
    std::vector<TraceChunk> chunks;
    for (unsigned i = 0; i < 10; ++i)
        chunks.push_back(extremeChunk(rng, i % 2 ? 1 + rng.below(8)
                                                 : 600 + rng.below(600)));
    chunks.push_back(TraceChunk{}); // no events at all

    for (const TraceChunk &chunk : chunks) {
        std::vector<std::uint8_t> reused{0xee, 0xee, 0xee};
        encodeChunk(chunk, reused);
        std::vector<std::uint8_t> fresh{0xee, 0xee, 0xee};
        std::thread([&] { encodeChunk(chunk, fresh); }).join();
        ASSERT_EQ(reused, fresh);

        std::string why;
        ASSERT_TRUE(verifyFrame(reused.data() + 3, reused.size() - 3, &why))
            << why;
        TraceChunk back;
        std::size_t consumed = 0;
        ASSERT_TRUE(decodeChunk(reused.data() + 3, reused.size() - 3, back,
                                &consumed, &why))
            << why;
        EXPECT_EQ(consumed, reused.size() - 3);
        ASSERT_EQ(back.events.size(), chunk.events.size());
        for (std::size_t i = 0; i < chunk.events.size(); ++i)
            ASSERT_TRUE(eventsEquivalent(chunk.events[i], back.events[i]))
                << "event " << i;
    }
}
