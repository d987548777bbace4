#include "core/trace_io.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/trace_codec.hh"

namespace tea {

namespace {

// Fault-injection seams, one per syscall that can fail in the wild
// (see DESIGN.md, "Failure model and recovery"). Every one sits on a
// best-effort path, which degrades or retries instead of dying.
Failpoint fpTmpOpen("trace_io.tmp_open", EIO);
Failpoint fpReserve("trace_io.reserve", ENOSPC);
Failpoint fpWriteChunk("trace_io.write_chunk", ENOSPC);
Failpoint fpSeal("trace_io.seal", ENOSPC);
Failpoint fpFsync("trace_io.fsync", EIO);
Failpoint fpCacheClose("trace_io.close", EIO);
Failpoint fpRename("trace_io.rename", EIO);
Failpoint fpDirFsync("trace_io.dir_fsync", EIO);
Failpoint fpMapOpen("trace_io.map_open", EIO);
Failpoint fpMmap("trace_io.mmap", EIO);

/**
 * On-disk file header of the compact trace-cache format. The CoreStats
 * snapshot follows immediately (statsBytes raw bytes + its CRC folded
 * into headerCrc via statsCrc), then payloadBytes of chunk frames.
 */
struct TraceFileHeader
{
    char magic[8];
    std::uint32_t codecVersion;
    std::uint32_t statsBytes;
    std::uint64_t fingerprint;
    std::uint64_t chunkCount;
    std::uint64_t eventCount;
    std::uint64_t cycleCount;
    std::uint64_t payloadBytes;
    std::uint32_t statsCrc;
    std::uint32_t headerCrc; ///< CRC-32 of all preceding header bytes
};

constexpr char traceFileMagic[8] = {'T', 'E', 'A', 'T',
                                    'R', 'C', '0', '1'};

static_assert(sizeof(TraceFileHeader) == 64,
              "header layout changed; bump traceCodecVersion");
static_assert(std::is_trivially_copyable_v<CoreStats>,
              "CoreStats is embedded in trace-cache files by memcpy");

/**
 * Granule of the behind-the-cursor page release in nextChunk(): pages
 * are dropped once this many bytes of them lie wholly behind the last
 * decoded frame, so a replay holds at most about this much of the entry
 * resident at a time for one madvise() per granule, not per frame.
 */
constexpr std::size_t releaseGranule = std::size_t{1} << 20;

/**
 * Drop this process's pages of [@p from, @p to) of a read-only
 * MAP_PRIVATE file mapping. Nothing is lost: such pages were never
 * written, so they stay in the page cache and a later touch faults the
 * same bytes back in from the same inode. That holds only because
 * cache entries never change in place — they are published by rename,
 * and the janitor only unlinks or renames them — so the inode behind a
 * mapping keeps its bytes for the mapping's lifetime.
 */
void
releasePages(const std::uint8_t *base, std::size_t from, std::size_t to)
{
    // Advisory: on failure the pages merely stay resident until munmap.
    (void)::madvise(const_cast<std::uint8_t *>(base + from), to - from,
                    MADV_DONTNEED); // tea_lint: allow(unchecked-io)
}

std::uint32_t
headerSelfCrc(const TraceFileHeader &hdr)
{
    return crc32(0, &hdr,
                 sizeof(TraceFileHeader) - sizeof(std::uint32_t));
}

/**
 * fsync the directory containing @p path. rename() promises atomicity,
 * not durability: until the directory inode reaches stable storage a
 * power cut can roll the publish back entirely — fsyncing the payload
 * alone is not enough (the classic create/rename/fsync-ordering bug).
 * Transient failures are retried; a permanent one is reported to the
 * caller, which degrades with a warning — the rename is visible to
 * every process on this boot regardless.
 */
bool
syncDirOf(const std::string &path, const RetryPolicy &policy,
          RetryStats &stats)
{
    std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".")
                                   : path.substr(0, slash);
    return retryTransient(policy, stats, [&] {
        int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
        if (fd >= 0 && TEA_FAILPOINT(fpDirFsync)) {
            ::close(fd);
            fd = -1;
            errno = fpDirFsync.failErrno();
        }
        if (fd < 0)
            return false;
        const bool ok = ::fsync(fd) == 0;
        const int saved = errno;
        ::close(fd);
        errno = saved;
        return ok;
    });
}

} // namespace

CompactTraceWriter::CompactTraceWriter(std::string final_path,
                                       std::uint64_t fingerprint)
    : finalPath_(std::move(final_path)), fingerprint_(fingerprint)
{
    // Unique temporary in the same directory so the final rename stays
    // within one filesystem (atomicity) and concurrent writers of the
    // same entry never clobber each other's partial file.
    static std::atomic<std::uint64_t> unique{0};
    tmpPath_ = strprintf(
        "%s.%ld.%llu.tmp", finalPath_.c_str(),
        static_cast<long>(::getpid()),
        static_cast<unsigned long long>(
            // relaxed: only uniqueness of the counter value matters,
            // not ordering against any other memory.
            unique.fetch_add(1, std::memory_order_relaxed)));
    // Opening the tmp file can hit transient conditions (EMFILE under
    // a loaded suite, EINTR): retry with backoff before giving up.
    retryTransient(retryPolicy_, retryStats_, [&] {
        file_ = std::fopen(tmpPath_.c_str(), "wb");
        if (file_ && TEA_FAILPOINT(fpTmpOpen)) {
            std::fclose(file_); // tea_lint: allow(unchecked-io)
            std::remove(tmpPath_.c_str()); // tea_lint: allow(unchecked-io)
            file_ = nullptr;
            errno = fpTmpOpen.failErrno();
        }
        return file_ != nullptr;
    });
    if (!file_) {
        tea_warn("trace cache: cannot create '%s' (%s); caching of this "
                 "entry disabled",
                 tmpPath_.c_str(), errnoString(errno).c_str());
        return;
    }
    // Reserve space for the header and stats snapshot; commit() seals
    // them once the totals are known.
    TraceFileHeader zero{};
    CoreStats stats{};
    if (std::fwrite(&zero, 1, sizeof(zero), file_) != sizeof(zero) ||
        std::fwrite(&stats, 1, sizeof(stats), file_) != sizeof(stats) ||
        TEA_FAILPOINT(fpReserve))
        abandon();
}

CompactTraceWriter::~CompactTraceWriter()
{
    abandon();
}

void
CompactTraceWriter::abandon()
{
    if (!file_)
        return;
    // The entry is being dropped: close/unlink failures change nothing.
    std::fclose(file_); // tea_lint: allow(unchecked-io)
    file_ = nullptr;
    std::remove(tmpPath_.c_str()); // tea_lint: allow(unchecked-io)
}

void
CompactTraceWriter::writeChunk(const TraceChunk &chunk)
{
    if (!file_)
        return;
    scratch_.clear();
    encodeChunk(chunk, scratch_);
    std::size_t wrote = std::fwrite(scratch_.data(), 1, scratch_.size(),
                                    file_);
    if (TEA_FAILPOINT(fpWriteChunk)) {
        errno = fpWriteChunk.failErrno();
        wrote = scratch_.size() / 2; // simulated short write
    }
    if (wrote != scratch_.size()) {
        // A short write leaves the frame stream unsealable; no retry
        // can resume mid-frame, so the entry is abandoned outright.
        tea_warn("trace cache: short write to '%s' (disk full?); "
                 "abandoning entry",
                 tmpPath_.c_str());
        abandon();
        return;
    }
    ++chunkCount_;
    eventCount_ += chunk.events.size();
    cycleCount_ += chunk.cycleRecords;
    payloadBytes_ += scratch_.size();
    if (byteLimit_ != 0 && bytesWritten() > byteLimit_) {
        // Admission control (cache budget): an entry bigger than the
        // whole budget would be evicted by the very next janitor pass,
        // so stop feeding it disk now. The simulation's own results
        // are unaffected — only the cache entry is dropped.
        tea_warn("trace cache: entry '%s' exceeds the cache budget "
                 "(%llu > %llu bytes); admission denied",
                 finalPath_.c_str(),
                 static_cast<unsigned long long>(bytesWritten()),
                 static_cast<unsigned long long>(byteLimit_));
        admissionDenied_ = true;
        abandon();
    }
}

std::uint64_t
CompactTraceWriter::bytesWritten() const
{
    return sizeof(TraceFileHeader) + sizeof(CoreStats) + payloadBytes_;
}

bool
CompactTraceWriter::commit(const CoreStats &stats)
{
    if (!file_)
        return false;

    TraceFileHeader hdr{};
    std::memcpy(hdr.magic, traceFileMagic, sizeof(hdr.magic));
    hdr.codecVersion = traceCodecVersion;
    hdr.statsBytes = static_cast<std::uint32_t>(sizeof(CoreStats));
    hdr.fingerprint = fingerprint_;
    hdr.chunkCount = chunkCount_;
    hdr.eventCount = eventCount_;
    hdr.cycleCount = cycleCount_;
    hdr.payloadBytes = payloadBytes_;
    hdr.statsCrc = crc32(0, &stats, sizeof(stats));
    hdr.headerCrc = headerSelfCrc(hdr);

    bool sealed = std::fseek(file_, 0, SEEK_SET) == 0 &&
                  std::fwrite(&hdr, 1, sizeof(hdr), file_) ==
                      sizeof(hdr) &&
                  std::fwrite(&stats, 1, sizeof(stats), file_) ==
                      sizeof(stats) &&
                  std::fflush(file_) == 0 && !TEA_FAILPOINT(fpSeal);
    // fsync is routinely interrupted (EINTR) on loaded boxes: retry
    // transient failures before declaring the entry lost.
    bool synced =
        sealed && retryTransient(retryPolicy_, retryStats_, [&] {
            if (TEA_FAILPOINT(fpFsync)) {
                errno = fpFsync.failErrno();
                return false;
            }
            return ::fsync(::fileno(file_)) == 0;
        });
    if (!synced) {
        tea_warn("trace cache: error sealing '%s' (disk full?); "
                 "abandoning entry",
                 tmpPath_.c_str());
        abandon();
        return false;
    }
    // The payload is already fsync'd, but a failing close can still
    // mean a lost buffer on some filesystems: propagate, don't publish.
    std::FILE *f = file_;
    file_ = nullptr;
    bool close_ok = std::fclose(f) == 0;
    if (close_ok && TEA_FAILPOINT(fpCacheClose)) {
        errno = fpCacheClose.failErrno();
        close_ok = false;
    }
    if (!close_ok) {
        tea_warn("trace cache: error closing '%s' (%s); abandoning "
                 "entry",
                 tmpPath_.c_str(), errnoString(errno).c_str());
        std::remove(tmpPath_.c_str()); // tea_lint: allow(unchecked-io)
        return false;
    }
    const bool published =
        retryTransient(retryPolicy_, retryStats_, [&] {
            if (TEA_FAILPOINT(fpRename)) {
                errno = fpRename.failErrno();
                return false;
            }
            return std::rename(tmpPath_.c_str(),
                               finalPath_.c_str()) == 0;
        });
    if (!published) {
        tea_warn("trace cache: cannot publish '%s' (%s)",
                 finalPath_.c_str(), errnoString(errno).c_str());
        // Publication already failed and was warned about above.
        std::remove(tmpPath_.c_str()); // tea_lint: allow(unchecked-io)
        return false;
    }
    // Make the rename itself durable. Failure here does not invalidate
    // the entry — it is fully visible and valid for as long as this
    // boot lasts — it only weakens the power-loss guarantee, so warn
    // and keep the entry.
    if (!syncDirOf(finalPath_, retryPolicy_, retryStats_)) {
        tea_warn("trace cache: cannot fsync directory of '%s' (%s); "
                 "entry is published but may not survive power loss",
                 finalPath_.c_str(), errnoString(errno).c_str());
    }
    return true;
}

MappedTraceFile::~MappedTraceFile()
{
    if (base_)
        ::munmap(const_cast<std::uint8_t *>(base_), size_);
}

std::unique_ptr<MappedTraceFile>
MappedTraceFile::open(const std::string &path,
                      std::uint64_t expected_fingerprint,
                      std::string *why_not, int *sys_err)
{
    if (sys_err)
        *sys_err = 0; // validation damage by default, not a syscall error

    auto reject = [&](const std::string &why) {
        if (why_not)
            *why_not = why;
        return std::unique_ptr<MappedTraceFile>();
    };

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0 && TEA_FAILPOINT(fpMapOpen)) {
        ::close(fd);
        fd = -1;
        errno = fpMapOpen.failErrno();
    }
    if (fd < 0) {
        if (sys_err)
            *sys_err = errno;
        return reject(strprintf("cannot open: %s", errnoString(errno).c_str()));
    }
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
        if (sys_err)
            *sys_err = errno;
        ::close(fd);
        return reject("cannot stat");
    }
    auto size = static_cast<std::size_t>(st.st_size);
    if (size < sizeof(TraceFileHeader)) {
        ::close(fd);
        return reject("file shorter than header");
    }
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map != MAP_FAILED && TEA_FAILPOINT(fpMmap)) {
        ::munmap(map, size);
        map = MAP_FAILED;
        errno = fpMmap.failErrno();
    }
    if (map == MAP_FAILED) {
        if (sys_err)
            *sys_err = errno;
        return reject(strprintf("mmap failed: %s", errnoString(errno).c_str()));
    }

    // Private constructor, so make_unique cannot reach it.
    std::unique_ptr<MappedTraceFile> f(
        new MappedTraceFile); // tea_lint: allow(naked-new)
    f->base_ = static_cast<const std::uint8_t *>(map);
    f->size_ = size;
    f->path_ = path;

    TraceFileHeader hdr;
    std::memcpy(&hdr, f->base_, sizeof(hdr));
    if (std::memcmp(hdr.magic, traceFileMagic, sizeof(hdr.magic)) != 0)
        return reject("bad magic (not a trace-cache file)");
    if (hdr.headerCrc != headerSelfCrc(hdr))
        return reject("header CRC mismatch");
    if (hdr.codecVersion != traceCodecVersion)
        return reject(strprintf("codec version %u, want %u",
                                hdr.codecVersion, traceCodecVersion));
    if (hdr.statsBytes != sizeof(CoreStats))
        return reject("CoreStats layout mismatch");
    if (hdr.fingerprint != expected_fingerprint)
        return reject("workload/config fingerprint mismatch");
    if (size != sizeof(hdr) + hdr.statsBytes + hdr.payloadBytes)
        return reject("file size does not match header (truncated?)");

    std::memcpy(&f->stats_, f->base_ + sizeof(hdr), sizeof(CoreStats));
    if (crc32(0, &f->stats_, sizeof(CoreStats)) != hdr.statsCrc)
        return reject("CoreStats CRC mismatch");

    // CRC-verify every frame up front: no event is ever delivered from
    // a file with so much as one bad byte in it.
    f->payloadOffset_ = sizeof(hdr) + hdr.statsBytes;
    std::size_t at = f->payloadOffset_;
    std::uint64_t chunks = 0, events = 0, cycles = 0;
    f->frameOffsets_.reserve(static_cast<std::size_t>(hdr.chunkCount));
    while (at < size) {
        std::string why;
        if (!verifyFrame(f->base_ + at, size - at, &why))
            return reject(strprintf("chunk %llu: %s",
                                    static_cast<unsigned long long>(
                                        chunks),
                                    why.c_str()));
        ChunkFrameHeader ch;
        peekFrame(f->base_ + at, size - at, &ch, nullptr);
        f->frameOffsets_.push_back(at);
        ++chunks;
        events += ch.eventCount;
        cycles += ch.cycleRecords;
        at += ch.frameBytes;
    }
    if (chunks != hdr.chunkCount || events != hdr.eventCount ||
        cycles != hdr.cycleCount)
        return reject("frame totals disagree with header");

    f->chunkCount_ = chunks;
    f->eventCount_ = events;
    f->cycleCount_ = cycles;
    // The CRC pass faulted in every page of the entry; give them back
    // rather than holding the whole file resident until munmap.
    // nextChunk() faults in each frame as it decodes it.
    releasePages(f->base_, 0, size);
    return f;
}

TraceChunkPtr
MappedTraceFile::nextChunk()
{
    if (nextFrame_ >= frameOffsets_.size())
        return nullptr;
    // Reuse chunk storage once its consumer has dropped it:
    // chunk-sized event vectors sit above malloc's mmap threshold, so
    // allocating afresh per frame pays kernel page-zeroing and cold
    // misses across the whole chunk on every decode. The storage is a
    // ring rather than a single slot so consumers that hold a batch of
    // decoded chunks in flight still recycle instead of allocating.
    std::shared_ptr<TraceChunk> out;
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
        std::shared_ptr<TraceChunk> &slot = scratch_[scratchNext_];
        scratchNext_ = (scratchNext_ + 1) % scratch_.size();
        if (slot.use_count() == 1) {
            out = slot;
            break;
        }
    }
    if (!out) {
        out = std::make_shared<TraceChunk>();
        scratch_.push_back(out);
        scratchNext_ = 0;
    }
    const std::size_t offset = frameOffsets_[nextFrame_++];
    std::size_t consumed = 0;
    std::string why;
    if (!decoder_.decode(base_ + offset, size_ - offset, *out, &consumed,
                         &why)) {
        // Every frame passed CRC validation at open(); failing to
        // decode now means the codec itself is inconsistent.
        tea_panic("trace cache '%s': CRC-clean frame failed to decode "
                  "(%s)",
                  path_.c_str(), why.c_str());
    }
    // The decoded chunk holds no pointer into the mapping, and frames
    // are read front to back once, so the pages wholly behind this
    // frame's last byte are done with.
    const std::size_t behind =
        (offset + consumed) & ~(releaseGranule - 1);
    if (behind > releasedTo_) {
        releasePages(base_, releasedTo_, behind);
        releasedTo_ = behind;
    }
    // Software-pipeline the source bytes: start pulling the next
    // frame's encoded streams toward the cache now, so they arrive
    // while the consumer replays this chunk instead of stalling the
    // next decode burst. The consumer's work between nextChunk()
    // calls evicts these lines from L1/L2 otherwise, and the decode
    // loops are fast enough that refilling on demand is a measurable
    // slice of warm-replay decode time.
    if (nextFrame_ < frameOffsets_.size()) {
        const std::size_t at = frameOffsets_[nextFrame_];
        const std::size_t frameEnd = nextFrame_ + 1 < frameOffsets_.size()
                                         ? frameOffsets_[nextFrame_ + 1]
                                         : size_;
        // Cap the touch: a pathologically large frame would otherwise
        // blow the very cache this is trying to keep warm.
        const std::size_t stop =
            std::min(frameEnd, at + (std::size_t{64} << 10));
        for (std::size_t p = at; p < stop; p += 64)
            __builtin_prefetch(base_ + p, 0 /*read*/, 3 /*keep*/);
    }
    return out;
}

} // namespace tea
