/**
 * @file
 * Tests for trace persistence and replay: a trace stored through
 * CompactTraceWriter and replayed out of MappedTraceFile must drive
 * observers to byte-identical results as the live simulation.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/rng.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "core/trace_io.hh"
#include "profilers/golden.hh"
#include "profilers/sampler.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

constexpr std::uint64_t kFingerprint = 0x7ea7ace;

struct TempFile
{
    std::string path;
    explicit TempFile(const char *name)
        : path(std::string("/tmp/tea_trace_test_") + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
};

/**
 * TraceSink that stores what it observes as a trace file: chunks the
 * stream (small chunks, so every test spans many frames) into a
 * CompactTraceWriter.
 */
class TraceFileSink : public ChunkingSink
{
  public:
    explicit TraceFileSink(const std::string &path)
        : ChunkingSink(256,
                       [this](TraceChunkPtr c) { writer_.writeChunk(*c); }),
          writer_(path, kFingerprint)
    {
    }

    /** Flush the tail chunk and publish the file with @p stats. */
    bool commit(const CoreStats &stats = CoreStats{})
    {
        finish();
        return writer_.commit(stats);
    }

  private:
    CompactTraceWriter writer_;
};

/** Map @p path and replay every chunk through @p sinks. @return cycles */
Cycle
replayFile(const std::string &path, const std::vector<TraceSink *> &sinks)
{
    std::string why;
    std::unique_ptr<MappedTraceFile> f =
        MappedTraceFile::open(path, kFingerprint, &why);
    EXPECT_NE(f, nullptr) << why;
    if (!f)
        return 0;
    Cycle cycles = 0;
    while (TraceChunkPtr chunk = f->nextChunk())
        cycles += replayChunk(*chunk, sinks);
    return cycles;
}

std::vector<SamplerConfig>
allPolicies()
{
    return {ibsConfig(127), speConfig(127), risConfig(127),
            nciTeaConfig(127), teaConfig(127), tipConfig(127),
            dtagTeaConfig(127)};
}

} // namespace

TEST(TraceIo, ReplayReproducesGoldenExactly)
{
    TempFile tmp("golden.teatrc");
    Workload w = workloads::byName("mcf");
    GoldenReference live;
    {
        CoreRun run = makeCore(std::move(w));
        TraceFileSink file(tmp.path);
        run->addSink(&live);
        run->addSink(&file);
        run->run();
        ASSERT_TRUE(file.commit(run->stats()));
        EXPECT_GT(file.eventsCaptured(), 1000u);
    }

    GoldenReference replayed;
    Cycle cycles = replayFile(tmp.path, {&replayed});
    EXPECT_GT(cycles, 0u);
    EXPECT_DOUBLE_EQ(replayed.pics().total(), live.pics().total());
    EXPECT_NEAR(replayed.pics().errorAgainst(live.pics()), 0.0, 1e-9);
    EXPECT_EQ(replayed.eventCounts().size(), live.eventCounts().size());
}

TEST(TraceIo, ReplayReproducesEverySamplingPolicy)
{
    TempFile tmp("samplers.teatrc");
    Workload w = workloads::byName("exchange2");

    std::vector<std::unique_ptr<TechniqueSampler>> live;
    for (SamplerConfig c : allPolicies())
        live.push_back(std::make_unique<TechniqueSampler>(c));

    {
        CoreRun run = makeCore(std::move(w));
        TraceFileSink file(tmp.path);
        for (auto &s : live)
            run->addSink(s.get());
        run->addSink(&file);
        run->run();
        ASSERT_TRUE(file.commit(run->stats()));
    }

    std::vector<std::unique_ptr<TechniqueSampler>> offline;
    std::vector<TraceSink *> sinks;
    for (SamplerConfig c : allPolicies()) {
        offline.push_back(std::make_unique<TechniqueSampler>(c));
        sinks.push_back(offline.back().get());
    }
    replayFile(tmp.path, sinks);

    for (std::size_t i = 0; i < live.size(); ++i) {
        SCOPED_TRACE(live[i]->config().name);
        EXPECT_EQ(offline[i]->samplesTaken(), live[i]->samplesTaken());
        EXPECT_EQ(offline[i]->samplesDropped(),
                  live[i]->samplesDropped());
        EXPECT_DOUBLE_EQ(offline[i]->pics().total(),
                         live[i]->pics().total());
        EXPECT_NEAR(offline[i]->pics().errorAgainst(live[i]->pics()),
                    0.0, 1e-9);
    }
}

TEST(TraceIo, CyclesReturnedMatchesSimulation)
{
    TempFile tmp("count.teatrc");
    Workload w = workloads::aluLoop(2000);
    CoreStats sim;
    {
        CoreRun run = makeCore(std::move(w));
        TraceFileSink file(tmp.path);
        run->addSink(&file);
        run->run();
        sim = run->stats();
        ASSERT_TRUE(file.commit(sim));
    }
    Cycle replayed = replayFile(tmp.path, {});
    EXPECT_EQ(replayed, sim.cycles);

    // The header totals and the embedded CoreStats agree with the run.
    std::string why;
    auto f = MappedTraceFile::open(tmp.path, kFingerprint, &why);
    ASSERT_NE(f, nullptr) << why;
    EXPECT_EQ(f->cycleCount(), sim.cycles);
    EXPECT_EQ(f->coreStats().cycles, sim.cycles);
    EXPECT_EQ(f->coreStats().committedUops, sim.committedUops);
}

TEST(TraceIo, MissingFileIsRejected)
{
    std::string why;
    int sys_err = 0;
    EXPECT_EQ(MappedTraceFile::open("/nonexistent/tea.teatrc", kFingerprint,
                                    &why, &sys_err),
              nullptr);
    EXPECT_NE(why.find("cannot open"), std::string::npos) << why;
    EXPECT_EQ(sys_err, ENOENT);
}

namespace {

/**
 * A seeded random event sequence and the TraceSink calls that produce
 * it. Cycle records only populate committed[0, numCommitted) — exactly
 * what the core emits and what the codec preserves.
 */
std::vector<TraceEvent>
randomEvents(std::uint64_t seed, unsigned count)
{
    Rng rng(seed);
    std::vector<TraceEvent> evs;
    evs.reserve(count + 1);
    for (unsigned i = 0; i < count; ++i) {
        TraceEvent ev;
        switch (rng.below(4)) {
          case 0: {
            ev.kind = TraceEventKind::Cycle;
            CycleRecord rec;
            rec.cycle = i;
            rec.state = static_cast<CommitState>(rng.below(4));
            rec.numCommitted =
                static_cast<std::uint8_t>(rng.below(9));
            for (unsigned u = 0; u < rec.numCommitted; ++u) {
                rec.committed[u] = CommittedUop{
                    rng.next(),
                    static_cast<InstIndex>(rng.below(1 << 20)),
                    Psv(static_cast<std::uint16_t>(
                        rng.below(0x200)))};
            }
            rec.headValid = rng.chance(0.5);
            rec.headSeq = rng.next();
            rec.headPc = static_cast<InstIndex>(rng.below(1 << 20));
            rec.lastValid = rng.chance(0.5);
            rec.lastPc = static_cast<InstIndex>(rng.below(1 << 20));
            rec.lastPsv =
                Psv(static_cast<std::uint16_t>(rng.below(0x200)));
            ev.p.cycle = rec;
            break;
          }
          case 1:
          case 2: {
            ev.kind = rng.chance(0.5) ? TraceEventKind::Dispatch
                                      : TraceEventKind::Fetch;
            ev.p.uop = UopRecord{
                rng.next(),
                static_cast<InstIndex>(rng.below(1 << 20)), i};
            break;
          }
          default: {
            ev.kind = TraceEventKind::Retire;
            ev.p.retire = RetireRecord{
                rng.next(),
                static_cast<InstIndex>(rng.below(1 << 20)),
                Psv(static_cast<std::uint16_t>(rng.below(0x200))),
                i};
            break;
          }
        }
        evs.push_back(ev);
    }
    // The core emits the end marker last.
    TraceEvent end;
    end.kind = TraceEventKind::End;
    end.p.end = count;
    evs.push_back(end);
    return evs;
}

} // namespace

class TraceIoRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceIoRoundTrip, RandomizedEventSequenceSurvivesRoundTrip)
{
    const std::uint64_t seed = GetParam();
    TempFile tmp(("roundtrip" + std::to_string(seed) + ".teatrc").c_str());
    std::vector<TraceEvent> written = randomEvents(seed, 2000);

    {
        TraceFileSink file(tmp.path);
        for (const TraceEvent &ev : written)
            deliverEvent(ev, file);
        EXPECT_EQ(file.eventsCaptured(), written.size());
        ASSERT_TRUE(file.commit());
    }

    TraceBuffer replayed(256);
    replayFile(tmp.path, {&replayed});
    replayed.finish();

    std::vector<TraceEvent> got;
    for (const TraceChunkPtr &c : replayed.chunks())
        got.insert(got.end(), c->events.begin(), c->events.end());

    ASSERT_EQ(got.size(), written.size()); // count and ordering
    // eventsEquivalent, not field equality: the codec legitimately
    // canonicalizes validity-gated fields (see trace_codec.hh).
    for (std::size_t i = 0; i < written.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(eventsEquivalent(written[i], got[i]));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoRoundTrip,
                         ::testing::Values(1u, 42u, 0xdecafbadu));

namespace {

/** Resident set of this process in bytes, from /proc/self/statm. */
std::int64_t
residentBytes()
{
    unsigned long long pages = 0, resident = 0;
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%llu %llu", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<std::int64_t>(resident) * ::sysconf(_SC_PAGESIZE);
}

} // namespace

TEST(TraceIo, WarmHitReleasesValidatedPagesAndDecodesIdentically)
{
    // open() reads every byte of an entry for its CRC pass; those pages
    // must not stay charged to the process until munmap. Random 64-bit
    // fields encode wide, so four distinct chunks written round-robin
    // fill a 32 MiB entry quickly.
    TempFile tmp("release.teatrc");
    std::vector<TraceChunk> chunks(4);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        chunks[i].events = randomEvents(0x5eed + i, 4095);
        for (const TraceEvent &ev : chunks[i].events)
            chunks[i].cycleRecords += ev.kind == TraceEventKind::Cycle;
    }
    std::size_t written = 0;
    {
        CompactTraceWriter writer(tmp.path, kFingerprint);
        while (writer.bytesWritten() < (std::uint64_t{32} << 20))
            writer.writeChunk(chunks[written++ % chunks.size()]);
        ASSERT_TRUE(writer.commit(CoreStats{}));
    }

    const std::int64_t before = residentBytes();
    std::string why;
    std::unique_ptr<MappedTraceFile> f =
        MappedTraceFile::open(tmp.path, kFingerprint, &why);
    ASSERT_NE(f, nullptr) << why;
    const std::int64_t grown = residentBytes() - before;
    ASSERT_GE(f->fileBytes(), std::uint64_t{32} << 20);
    EXPECT_LT(grown, std::int64_t{4} << 20)
        << "open() left " << (grown >> 20) << " MiB of the entry resident";

    // Released pages fault back in from the same bytes.
    for (std::size_t i = 0; i < written; ++i) {
        SCOPED_TRACE(i);
        TraceChunkPtr got = f->nextChunk();
        ASSERT_NE(got, nullptr);
        const TraceChunk &want = chunks[i % chunks.size()];
        ASSERT_EQ(got->cycleRecords, want.cycleRecords);
        ASSERT_EQ(got->events.size(), want.events.size());
        for (std::size_t e = 0; e < want.events.size(); ++e)
            ASSERT_TRUE(eventsEquivalent(want.events[e], got->events[e]))
                << "event " << e;
    }
    EXPECT_EQ(f->nextChunk(), nullptr);
}

TEST(TraceCodec, DecodeFromMisalignedBuffer)
{
    // Frames in a cached file start wherever the previous frame ended,
    // so the decoder sees arbitrary byte offsets inside the mmap'd
    // region. Every multi-byte field read must therefore be
    // alignment-safe (memcpy, not pointer casts) — under UBSan a
    // misaligned load here aborts the test.
    std::vector<TraceEvent> written = randomEvents(0xa11a, 500);
    TraceChunk chunk;
    chunk.events = written;
    for (const TraceEvent &ev : written) {
        if (ev.kind == TraceEventKind::Cycle)
            ++chunk.cycleRecords;
    }
    std::vector<std::uint8_t> encoded;
    encodeChunk(chunk, encoded);
    ASSERT_GT(encoded.size(), sizeof(ChunkFrameHeader));

    for (std::size_t off = 1; off < 8; ++off) {
        SCOPED_TRACE(off);
        std::vector<std::uint8_t> buf(encoded.size() + off, 0xAB);
        std::copy(encoded.begin(), encoded.end(), buf.begin() +
                  static_cast<std::ptrdiff_t>(off));
        const std::uint8_t *frame = buf.data() + off;

        std::string why;
        ChunkFrameHeader header;
        ASSERT_TRUE(peekFrame(frame, encoded.size(), &header, &why))
            << why;
        EXPECT_EQ(header.eventCount, written.size());
        ASSERT_TRUE(verifyFrame(frame, encoded.size(), &why)) << why;

        TraceChunk out;
        std::size_t consumed = 0;
        ASSERT_TRUE(decodeChunk(frame, encoded.size(), out, &consumed,
                                &why))
            << why;
        EXPECT_EQ(consumed, encoded.size());
        ASSERT_EQ(out.events.size(), written.size());
        // eventsEquivalent, not field equality: the codec legitimately
        // canonicalizes validity-gated fields (see trace_codec.hh).
        for (std::size_t i = 0; i < written.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_TRUE(eventsEquivalent(written[i], out.events[i]));
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection: every I/O syscall of the trace format has a failpoint
// seam (common/failpoint). Each must degrade — warn, abandon the file,
// leave no temporary behind, and never touch the experiment's
// correctness.
// ---------------------------------------------------------------------

namespace {

/** Fault-injection fixture: all seams disarmed before and after. */
class TraceIoFaults : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!failpoints::compiledIn())
            GTEST_SKIP() << "failpoint seams compiled out";
        failpoints::resetAll();
    }
    void TearDown() override { failpoints::resetAll(); }
};

/** A scratch directory removed (with contents) on destruction. */
struct TempDir
{
    std::string path;
    TempDir()
    {
        char tmpl[] = "/tmp/tea-trace-io-fault-XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }
    ~TempDir()
    {
        for (const std::string &name : list())
            std::remove((path + "/" + name).c_str());
        ::rmdir(path.c_str());
    }
    std::vector<std::string> list() const
    {
        std::vector<std::string> out;
        if (DIR *d = ::opendir(path.c_str())) {
            while (struct dirent *e = ::readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    out.push_back(name);
            }
            ::closedir(d);
        }
        return out;
    }
};

/** One structurally valid chunk to feed the cache writer. */
TraceChunk
sampleChunk()
{
    TraceChunk chunk;
    chunk.events = randomEvents(0xfau, 200);
    for (const TraceEvent &ev : chunk.events) {
        if (ev.kind == TraceEventKind::Cycle)
            ++chunk.cycleRecords;
    }
    return chunk;
}

} // namespace

TEST_F(TraceIoFaults, CacheWriterSeamsDegradeWithoutLeakingTmp)
{
    // Simulated full disk (ENOSPC) on every cache-write seam in turn:
    // the writer must warn and abandon — never exit, never publish, and
    // never leave a *.tmp behind.
    const char *seams[] = {
        "trace_io.tmp_open", "trace_io.reserve", "trace_io.write_chunk",
        "trace_io.seal",     "trace_io.fsync",   "trace_io.close",
        "trace_io.rename",
    };
    const TraceChunk chunk = sampleChunk();
    for (const char *seam : seams) {
        SCOPED_TRACE(seam);
        TempDir dir;
        const std::string path = dir.path + "/entry.teatrc";
        failpoints::configure(seam, "always@enospc");
        {
            CompactTraceWriter writer(path, 77);
            writer.writeChunk(chunk);
            EXPECT_FALSE(writer.commit(CoreStats{}));
        }
        failpoints::resetAll();
        EXPECT_TRUE(dir.list().empty())
            << "seam left files behind: " << dir.list().front();

        // With the seam disarmed the same sequence publishes fine.
        {
            CompactTraceWriter writer(path, 77);
            writer.writeChunk(chunk);
            EXPECT_TRUE(writer.commit(CoreStats{}));
        }
        std::string why;
        EXPECT_NE(MappedTraceFile::open(path, 77, &why), nullptr) << why;
    }
}

TEST_F(TraceIoFaults, TransientFsyncFailureIsRetriedAndRecovered)
{
    TempDir dir;
    const std::string path = dir.path + "/entry.teatrc";
    failpoints::configure("trace_io.fsync", "nth:1@eagain");
    CompactTraceWriter writer(path, 5);
    writer.writeChunk(sampleChunk());
    EXPECT_TRUE(writer.commit(CoreStats{}));
    EXPECT_EQ(writer.retryStats().retries, 1u);
    EXPECT_EQ(writer.retryStats().recoveries, 1u);
    std::string why;
    EXPECT_NE(MappedTraceFile::open(path, 5, &why), nullptr) << why;
}

TEST_F(TraceIoFaults, MapSyscallFailuresReportErrnoToCaller)
{
    TempDir dir;
    const std::string path = dir.path + "/entry.teatrc";
    {
        CompactTraceWriter writer(path, 9);
        writer.writeChunk(sampleChunk());
        ASSERT_TRUE(writer.commit(CoreStats{}));
    }

    for (const char *seam : {"trace_io.map_open", "trace_io.mmap"}) {
        SCOPED_TRACE(seam);
        failpoints::configure(seam, "always@eio");
        std::string why;
        int sys_err = 0;
        EXPECT_EQ(MappedTraceFile::open(path, 9, &why, &sys_err),
                  nullptr);
        EXPECT_EQ(sys_err, EIO); // syscall failure, not damage
        failpoints::resetAll();
    }

    // Validation damage reports sys_err == 0: retrying cannot help.
    std::string why;
    int sys_err = 123;
    EXPECT_EQ(MappedTraceFile::open(path, 10, &why, &sys_err), nullptr);
    EXPECT_EQ(sys_err, 0);
    EXPECT_NE(why.find("fingerprint"), std::string::npos) << why;
}

TEST_F(TraceIoFaults, WriterAbandonsOnScopeExitWithoutCommit)
{
    TempDir dir;
    const std::string path = dir.path + "/entry.teatrc";
    {
        CompactTraceWriter writer(path, 3);
        writer.writeChunk(sampleChunk());
        // No commit: simulated experiment death mid-write.
    }
    EXPECT_TRUE(dir.list().empty());
}
