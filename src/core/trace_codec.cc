#include "core/trace_codec.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <tuple>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/varint.hh"

namespace tea {

namespace {

/**
 * The field streams of one frame, in on-disk order. Each stream holds
 * one field of one event kind across the whole chunk (SoA), so runs of
 * similar values sit together and delta-varint coding stays tight.
 */
enum Stream : unsigned
{
    CycDelta = 0, ///< CycleRecord.cycle (zigzag delta)
    CycFlags,     ///< packed state/numCommitted/headValid/lastValid
    HeadSeq,      ///< headSeq, present iff headValid (zigzag delta)
    HeadPc,       ///< headPc, present iff headValid (zigzag delta)
    LastPc,       ///< lastPc, present iff lastValid (zigzag delta)
    LastPsv,      ///< lastPsv bits, present iff lastValid (varint)
    ComSeq,       ///< committed[i].seq (zigzag delta)
    ComPc,        ///< committed[i].pc (zigzag delta)
    ComPsv,       ///< committed[i].psv bits (varint)
    DispSeq,      ///< dispatch seq (zigzag delta)
    DispPc,       ///< dispatch pc (zigzag delta)
    DispCycle,    ///< dispatch cycle (zigzag delta)
    FetchSeq,
    FetchPc,
    FetchCycle,
    RetSeq,
    RetPc,
    RetPsv,
    RetCycle,
    EndCycle, ///< final cycle of End events (varint)
    NumStreams,
};

// CycFlags packing: 2 bits state, 4 bits numCommitted (<= 8), then the
// two validity flags.
constexpr unsigned flagStateShift = 6;
constexpr unsigned flagCountShift = 2;
constexpr unsigned flagHeadValid = 0x2;
constexpr unsigned flagLastValid = 0x1;

// Frame-layout lock (enforced by tea_lint's codec-version-lock rule):
// the stream directory, the flag packing and the frame header are the
// on-disk contract. Changing any of them invalidates every cached
// trace, so the change must come with a traceCodecVersion bump — update
// the pinned values here in the same commit that bumps the version.
static_assert(traceCodecVersion == 1,
              "codec version changed: re-pin the layout asserts below");
static_assert(sizeof(ChunkFrameHeader) == 16,
              "ChunkFrameHeader layout changed: bump traceCodecVersion");
static_assert(NumStreams == 20,
              "stream directory changed: bump traceCodecVersion");
static_assert(static_cast<unsigned>(TraceEventKind::End) == 4,
              "trace event kinds changed: bump traceCodecVersion");
static_assert(flagStateShift == 6 && flagCountShift == 2 &&
                  flagHeadValid == 0x2 && flagLastValid == 0x1,
              "CycFlags packing changed: bump traceCodecVersion");
static_assert(std::tuple_size_v<decltype(CycleRecord{}.committed)> <=
                  0xF,
              "commit snapshot exceeds the 4-bit CycFlags count field");

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** LEB128 of @p v written at @p p; returns one past its last byte. */
std::uint8_t *
putVarintAt(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80u;
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

/** Longest LEB128 encoding of a 64-bit value. */
constexpr std::size_t maxVarintBytes = 10;

std::uint64_t
zigzag(std::int64_t d)
{
    return (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
}

/** Per-stream delta encoder state (reset at every frame). */
struct DeltaState
{
    std::uint64_t prev = 0;

    std::uint64_t
    encode(std::uint64_t v)
    {
        std::uint64_t z = zigzag(static_cast<std::int64_t>(v - prev));
        prev = v;
        return z;
    }

    std::uint64_t
    decode(std::uint64_t z)
    {
        prev += static_cast<std::uint64_t>(unzigzag(z));
        return prev;
    }
};

/** Bounds-checked reader over one stream of a mapped frame. */
struct Cursor
{
    const std::uint8_t *p = nullptr;
    const std::uint8_t *end = nullptr;

    bool exhausted() const { return p == end; }

    bool
    readByte(std::uint8_t *v)
    {
        if (p >= end)
            return false;
        *v = *p++;
        return true;
    }

    bool
    readVarint(std::uint64_t *v)
    {
        std::uint64_t out = 0;
        unsigned shift = 0;
        while (p < end && shift < 64) {
            std::uint8_t b = *p++;
            out |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
            if (!(b & 0x80u)) {
                *v = out;
                return true;
            }
            shift += 7;
        }
        return false; // truncated or > 64-bit varint
    }
};

bool
fail(std::string *why, const char *msg)
{
    if (why)
        *why = msg;
    return false;
}

} // namespace

void
encodeChunk(const TraceChunk &chunk, std::vector<std::uint8_t> &out)
{
    // Stream buffers live as long as the thread and keep their
    // capacity, so a steady-state encode allocates nothing; each call
    // starts them empty, so no byte carries over between frames.
    thread_local std::array<std::vector<std::uint8_t>, NumStreams> streams;
    for (auto &s : streams)
        s.clear();
    DeltaState cycD, headSeqD, headPcD, lastPcD, comSeqD, comPcD;
    DeltaState dispSeqD, dispPcD, dispCycD, fetchSeqD, fetchPcD,
        fetchCycD, retSeqD, retPcD, retCycD;

    // The payload is the kind array, then the length-prefixed streams;
    // the kinds go straight into place behind the header.
    const std::size_t at = out.size();
    const std::size_t kindsAt = at + sizeof(ChunkFrameHeader);
    const std::size_t numEvents = chunk.events.size();
    out.resize(kindsAt + numEvents);
    std::uint8_t *kind = out.data() + kindsAt;

    for (const TraceEvent &ev : chunk.events) {
        *kind++ = static_cast<std::uint8_t>(ev.kind);
        switch (ev.kind) {
          case TraceEventKind::Cycle: {
            const CycleRecord &r = ev.p.cycle;
            tea_assert(r.numCommitted <= r.committed.size(),
                       "numCommitted %u overflows the committed array",
                       r.numCommitted);
            putVarint(streams[CycDelta], cycD.encode(r.cycle));
            std::uint8_t flags = static_cast<std::uint8_t>(
                (static_cast<unsigned>(r.state) << flagStateShift) |
                (static_cast<unsigned>(r.numCommitted)
                 << flagCountShift) |
                (r.headValid ? flagHeadValid : 0u) |
                (r.lastValid ? flagLastValid : 0u));
            streams[CycFlags].push_back(flags);
            if (r.headValid) {
                putVarint(streams[HeadSeq], headSeqD.encode(r.headSeq));
                putVarint(streams[HeadPc], headPcD.encode(r.headPc));
            }
            if (r.lastValid) {
                putVarint(streams[LastPc], lastPcD.encode(r.lastPc));
                putVarint(streams[LastPsv], r.lastPsv.bits());
            }
            for (unsigned i = 0; i < r.numCommitted; ++i) {
                const CommittedUop &c = r.committed[i];
                putVarint(streams[ComSeq], comSeqD.encode(c.seq));
                putVarint(streams[ComPc], comPcD.encode(c.pc));
                putVarint(streams[ComPsv], c.psv.bits());
            }
            break;
          }
          case TraceEventKind::Dispatch: {
            const UopRecord &r = ev.p.uop;
            putVarint(streams[DispSeq], dispSeqD.encode(r.seq));
            putVarint(streams[DispPc], dispPcD.encode(r.pc));
            putVarint(streams[DispCycle], dispCycD.encode(r.cycle));
            break;
          }
          case TraceEventKind::Fetch: {
            const UopRecord &r = ev.p.uop;
            putVarint(streams[FetchSeq], fetchSeqD.encode(r.seq));
            putVarint(streams[FetchPc], fetchPcD.encode(r.pc));
            putVarint(streams[FetchCycle], fetchCycD.encode(r.cycle));
            break;
          }
          case TraceEventKind::Retire: {
            const RetireRecord &r = ev.p.retire;
            putVarint(streams[RetSeq], retSeqD.encode(r.seq));
            putVarint(streams[RetPc], retPcD.encode(r.pc));
            putVarint(streams[RetPsv], r.psv.bits());
            putVarint(streams[RetCycle], retCycD.encode(r.cycle));
            break;
          }
          case TraceEventKind::End:
            putVarint(streams[EndCycle], ev.p.end);
            break;
        }
    }

    std::size_t bound = kindsAt + numEvents;
    for (const auto &s : streams)
        bound += maxVarintBytes + s.size();
    out.resize(bound);
    std::uint8_t *p = out.data() + kindsAt + numEvents;
    for (const auto &s : streams) {
        p = putVarintAt(p, s.size());
        if (!s.empty())
            std::memcpy(p, s.data(), s.size());
        p += s.size();
    }
    out.resize(static_cast<std::size_t>(p - out.data()));

    const std::size_t payloadBytes = out.size() - kindsAt;
    ChunkFrameHeader hdr;
    hdr.frameBytes = static_cast<std::uint32_t>(sizeof(ChunkFrameHeader) +
                                                payloadBytes);
    hdr.eventCount = static_cast<std::uint32_t>(numEvents);
    hdr.cycleRecords = static_cast<std::uint32_t>(chunk.cycleRecords);
    hdr.payloadCrc = crc32(0, out.data() + kindsAt, payloadBytes);
    tea_assert(sizeof(ChunkFrameHeader) + payloadBytes <= maxChunkFrameBytes,
               "trace chunk frame exceeds %u bytes", maxChunkFrameBytes);
    std::memcpy(out.data() + at, &hdr, sizeof(hdr));
}

bool
peekFrame(const std::uint8_t *data, std::size_t avail,
          ChunkFrameHeader *header, std::string *why)
{
    if (avail < sizeof(ChunkFrameHeader))
        return fail(why, "truncated chunk frame header");
    ChunkFrameHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.frameBytes < sizeof(ChunkFrameHeader) ||
        hdr.frameBytes > maxChunkFrameBytes)
        return fail(why, "implausible chunk frame size");
    if (hdr.frameBytes > avail)
        return fail(why, "chunk frame extends past end of file");
    if (hdr.cycleRecords > hdr.eventCount ||
        hdr.eventCount > hdr.frameBytes)
        return fail(why, "implausible chunk event counts");
    *header = hdr;
    return true;
}

bool
verifyFrame(const std::uint8_t *data, std::size_t avail, std::string *why)
{
    ChunkFrameHeader hdr;
    if (!peekFrame(data, avail, &hdr, why))
        return false;
    std::uint32_t crc = crc32(0, data + sizeof(hdr),
                              hdr.frameBytes - sizeof(hdr));
    if (crc != hdr.payloadCrc)
        return fail(why, "chunk payload CRC mismatch");
    return true;
}

/**
 * Per-stream decoded-value lanes, reused across frames. CycFlags is the
 * one raw-byte stream; its lane stays empty and stage 2 reads the
 * mapped bytes directly.
 */
struct ChunkDecoder::Impl
{
    std::array<std::unique_ptr<std::uint64_t[]>, NumStreams> lanes;
    std::array<std::size_t, NumStreams> cap{};
    std::array<std::size_t, NumStreams> count{};

    /** Event index list per kind, filled by assemble's position pass. */
    static constexpr unsigned numKinds =
        static_cast<unsigned>(TraceEventKind::End) + 1;
    std::array<std::unique_ptr<std::uint32_t[]>, numKinds> pos;
    std::size_t posCap = 0;

    void
    ensure(unsigned s, std::size_t need)
    {
        if (cap[s] >= need)
            return;
        const std::size_t grown = std::bit_ceil(need);
        lanes[s] = std::make_unique_for_overwrite<std::uint64_t[]>(grown);
        cap[s] = grown;
    }

    void
    ensurePos(std::size_t need)
    {
        if (posCap >= need)
            return;
        const std::size_t grown =
            std::bit_ceil(std::max<std::size_t>(need, 1));
        for (auto &list : pos)
            list = std::make_unique_for_overwrite<std::uint32_t[]>(grown);
        posCap = grown;
    }

    bool assemble(const ChunkFrameHeader &hdr, const std::uint8_t *kinds,
                  const std::uint8_t *cflags, TraceChunk &out,
                  std::string *why);
};

// Stage 2 runs kind-grouped instead of event-at-a-time: a position
// pass splits the kind array into per-kind event index lists and
// validates every stream's length once, then one tight homogeneous
// write loop per kind assembles events straight from the lanes — no
// per-event switch to mispredict and no per-field bounds checks in
// the hot loops.
// tea_lint: hot
bool
ChunkDecoder::Impl::assemble(const ChunkFrameHeader &hdr,
                             const std::uint8_t *kinds,
                             const std::uint8_t *cflags, TraceChunk &out,
                             std::string *why)
{
    // Resize only when the count actually changes: every always-valid
    // field is overwritten below and gated leftovers are unspecified by
    // contract, so re-running element constructors on a reused chunk of
    // the same size (the steady replay state) would be pure churn — and
    // measurably dominated decode time when it was done per frame.
    if (out.events.size() != hdr.eventCount)
        out.events.resize(hdr.eventCount);

    ensurePos(hdr.eventCount);
    // Pointer cursors rather than per-kind counters: an index store
    // through std::uint32_t* may alias integer counters, forcing the
    // compiler to spill and reload them every iteration; pointers are a
    // distinct type the stores provably cannot touch.
    std::uint32_t *cur[numKinds];
    for (unsigned k = 0; k < numKinds; ++k)
        cur[k] = pos[k].get();
    for (std::uint32_t i = 0; i < hdr.eventCount; ++i) {
        const std::uint8_t k = kinds[i];
        if (k >= numKinds)
            return fail(why, "unknown trace event kind");
        *cur[k]++ = i;
    }
    const auto kindCount = [&](TraceEventKind k) {
        const auto u = static_cast<unsigned>(k);
        return static_cast<std::uint32_t>(cur[u] - pos[u].get());
    };
    const std::uint32_t nCyc = kindCount(TraceEventKind::Cycle);
    const std::uint32_t nDisp = kindCount(TraceEventKind::Dispatch);
    const std::uint32_t nFetch = kindCount(TraceEventKind::Fetch);
    const std::uint32_t nRet = kindCount(TraceEventKind::Retire);
    const std::uint32_t nEnd = kindCount(TraceEventKind::End);
    if (nCyc != hdr.cycleRecords)
        return fail(why, "cycle-record count mismatch");
    if (count[CycFlags] != nCyc)
        return fail(why, count[CycFlags] < nCyc
                             ? "truncated cycle stream"
                             : "unconsumed stream bytes");

    // Tally the gated-field populations from the flag bytes, eight
    // flag bytes per step (SWAR): the valid bits are popcounts over a
    // bit column, the commit counts are a nibble column summed with
    // the multiply-shift byte-sum trick (8 nibbles <= 120, no carry),
    // and an implausible count (> 8) is detected by the carry into
    // bit 4 of nc + 7, OR-accumulated and checked once.
    std::size_t nHead = 0, nLast = 0, nCom = 0;
    {
        constexpr std::uint64_t lsb = 0x0101010101010101ull;
        std::uint64_t bad = 0;
        std::uint32_t j = 0;
        for (; j + 8 <= nCyc; j += 8) {
            std::uint64_t x;
            std::memcpy(&x, cflags + j, 8);
            nLast += static_cast<unsigned>(
                __builtin_popcountll(x & lsb)); // flagLastValid
            nHead += static_cast<unsigned>(
                __builtin_popcountll(x & (lsb << 1))); // flagHeadValid
            const std::uint64_t t =
                (x >> flagCountShift) & (lsb * 0x0F);
            bad |= (t + lsb * 0x07) & (lsb * 0x10);
            nCom += (t * lsb) >> 56;
        }
        for (; j < nCyc; ++j) {
            const std::uint8_t f = cflags[j];
            const unsigned nc = (f >> flagCountShift) & 0xFu;
            if (nc > 8)
                bad = 1;
            nCom += nc;
            nHead += (f >> 1) & 1u; // flagHeadValid
            nLast += f & 1u;        // flagLastValid
        }
        static_assert(
            std::tuple_size_v<decltype(CycleRecord{}.committed)> == 8,
            "commit-count plausibility bound is hardwired to 8");
        if (bad)
            return fail(why, "implausible commit count");
    }

    // One exact-length check per stream replaces the old per-event
    // bounds checks: a short stream is truncation, a long one trailing
    // unconsumed values — either rejects the frame before any of the
    // unchecked write loops below runs.
    const struct
    {
        unsigned s;
        std::size_t expect;
        const char *short_msg;
    } lengths[] = {
        {CycDelta, nCyc, "truncated cycle stream"},
        {HeadSeq, nHead, "truncated head stream"},
        {HeadPc, nHead, "truncated head stream"},
        {LastPc, nLast, "truncated last-commit stream"},
        {LastPsv, nLast, "truncated last-commit stream"},
        {ComSeq, nCom, "truncated committed stream"},
        {ComPc, nCom, "truncated committed stream"},
        {ComPsv, nCom, "truncated committed stream"},
        {DispSeq, nDisp, "truncated dispatch stream"},
        {DispPc, nDisp, "truncated dispatch stream"},
        {DispCycle, nDisp, "truncated dispatch stream"},
        {FetchSeq, nFetch, "truncated fetch stream"},
        {FetchPc, nFetch, "truncated fetch stream"},
        {FetchCycle, nFetch, "truncated fetch stream"},
        {RetSeq, nRet, "truncated retire stream"},
        {RetPc, nRet, "truncated retire stream"},
        {RetPsv, nRet, "truncated retire stream"},
        {RetCycle, nRet, "truncated retire stream"},
        {EndCycle, nEnd, "truncated end stream"},
    };
    for (const auto &l : lengths) {
        if (count[l.s] != l.expect)
            return fail(why, count[l.s] < l.expect
                                 ? l.short_msg
                                 : "unconsumed stream bytes");
    }

    TraceEvent *const events = out.events.data();

    // The write loops below rebuild absolute values from the zigzag
    // deltas inline: each lane is consumed in exactly the order the
    // encoder produced it (event order within a kind, commit order
    // within a cycle), so one running accumulator per delta stream
    // replaces a separate prefix-sum pass over every lane.
    {
        const std::uint32_t *P =
            pos[static_cast<unsigned>(TraceEventKind::Cycle)].get();
        const std::uint64_t *cyc = lanes[CycDelta].get();
        const std::uint64_t *hseq = lanes[HeadSeq].get();
        const std::uint64_t *hpc = lanes[HeadPc].get();
        const std::uint64_t *lpc = lanes[LastPc].get();
        const std::uint64_t *lpsv = lanes[LastPsv].get();
        const std::uint64_t *cseq = lanes[ComSeq].get();
        const std::uint64_t *cpc = lanes[ComPc].get();
        const std::uint64_t *cpsv = lanes[ComPsv].get();
        std::uint64_t cycPrev = 0, hseqPrev = 0, hpcPrev = 0;
        std::uint64_t lpcPrev = 0, cseqPrev = 0, cpcPrev = 0;
        std::size_t hs = 0, ls = 0, cs = 0;
        for (std::uint32_t j = 0; j < nCyc; ++j) {
            TraceEvent &ev = events[P[j]];
            ev.kind = TraceEventKind::Cycle;
            CycleRecord &r = ev.p.cycle;
            const std::uint8_t f = cflags[j];
            cycPrev += static_cast<std::uint64_t>(unzigzag(cyc[j]));
            r.cycle = cycPrev;
            r.state = static_cast<CommitState>(f >> flagStateShift);
            const unsigned nc = (f >> flagCountShift) & 0xFu;
            r.numCommitted = static_cast<std::uint8_t>(nc);
            const bool hv = f & flagHeadValid;
            const bool lv = f & flagLastValid;
            r.headValid = hv;
            r.lastValid = lv;
            // Branchless gated fields: the delta is masked to zero and
            // the cursor does not advance when the flag is clear, so
            // the unconditional store writes unspecified-but-harmless
            // contents (allowed by the decode contract) instead of
            // costing a hard-to-predict branch per record. Stage 1
            // sizes each lane one slot past its value count so the
            // read at the final cursor position stays in bounds.
            const std::uint64_t hm = -static_cast<std::uint64_t>(hv);
            hseqPrev +=
                static_cast<std::uint64_t>(unzigzag(hseq[hs])) & hm;
            hpcPrev +=
                static_cast<std::uint64_t>(unzigzag(hpc[hs])) & hm;
            r.headSeq = hseqPrev;
            r.headPc = static_cast<InstIndex>(hpcPrev);
            hs += hv;
            const std::uint64_t lm = -static_cast<std::uint64_t>(lv);
            lpcPrev +=
                static_cast<std::uint64_t>(unzigzag(lpc[ls])) & lm;
            r.lastPc = static_cast<InstIndex>(lpcPrev);
            r.lastPsv = Psv(static_cast<std::uint16_t>(lpsv[ls]));
            ls += lv;
            for (unsigned c = 0; c < nc; ++c) {
                cseqPrev +=
                    static_cast<std::uint64_t>(unzigzag(cseq[cs + c]));
                cpcPrev +=
                    static_cast<std::uint64_t>(unzigzag(cpc[cs + c]));
                r.committed[c] = CommittedUop{
                    cseqPrev, static_cast<InstIndex>(cpcPrev),
                    Psv(static_cast<std::uint16_t>(cpsv[cs + c]))};
            }
            cs += nc;
        }
    }

    const auto writeUops = [events](const std::uint32_t *P,
                                    std::uint32_t n, TraceEventKind kind,
                                    const std::uint64_t *seq,
                                    const std::uint64_t *pc,
                                    const std::uint64_t *cycle) {
        std::uint64_t seqPrev = 0, pcPrev = 0, cycPrev = 0;
        for (std::uint32_t j = 0; j < n; ++j) {
            TraceEvent &ev = events[P[j]];
            ev.kind = kind;
            UopRecord &r = ev.p.uop;
            seqPrev += static_cast<std::uint64_t>(unzigzag(seq[j]));
            pcPrev += static_cast<std::uint64_t>(unzigzag(pc[j]));
            cycPrev += static_cast<std::uint64_t>(unzigzag(cycle[j]));
            r.seq = seqPrev;
            r.pc = static_cast<InstIndex>(pcPrev);
            r.cycle = cycPrev;
        }
    };
    writeUops(pos[static_cast<unsigned>(TraceEventKind::Dispatch)].get(),
              nDisp, TraceEventKind::Dispatch, lanes[DispSeq].get(),
              lanes[DispPc].get(), lanes[DispCycle].get());
    writeUops(pos[static_cast<unsigned>(TraceEventKind::Fetch)].get(),
              nFetch, TraceEventKind::Fetch, lanes[FetchSeq].get(),
              lanes[FetchPc].get(), lanes[FetchCycle].get());

    {
        const std::uint32_t *P =
            pos[static_cast<unsigned>(TraceEventKind::Retire)].get();
        const std::uint64_t *seq = lanes[RetSeq].get();
        const std::uint64_t *pc = lanes[RetPc].get();
        const std::uint64_t *psv = lanes[RetPsv].get();
        const std::uint64_t *cycle = lanes[RetCycle].get();
        std::uint64_t seqPrev = 0, pcPrev = 0, cycPrev = 0;
        for (std::uint32_t j = 0; j < nRet; ++j) {
            TraceEvent &ev = events[P[j]];
            ev.kind = TraceEventKind::Retire;
            RetireRecord &r = ev.p.retire;
            seqPrev += static_cast<std::uint64_t>(unzigzag(seq[j]));
            pcPrev += static_cast<std::uint64_t>(unzigzag(pc[j]));
            cycPrev += static_cast<std::uint64_t>(unzigzag(cycle[j]));
            r.seq = seqPrev;
            r.pc = static_cast<InstIndex>(pcPrev);
            r.psv = Psv(static_cast<std::uint16_t>(psv[j]));
            r.cycle = cycPrev;
        }
    }

    {
        const std::uint32_t *P =
            pos[static_cast<unsigned>(TraceEventKind::End)].get();
        const std::uint64_t *ec = lanes[EndCycle].get();
        for (std::uint32_t j = 0; j < nEnd; ++j) {
            TraceEvent &ev = events[P[j]];
            ev.kind = TraceEventKind::End;
            ev.p.end = ec[j];
        }
    }

    out.cycleRecords = nCyc;
    return true;
}

ChunkDecoder::ChunkDecoder() : impl_(std::make_unique<Impl>()) {}
ChunkDecoder::~ChunkDecoder() = default;
ChunkDecoder::ChunkDecoder(ChunkDecoder &&) noexcept = default;
ChunkDecoder &ChunkDecoder::operator=(ChunkDecoder &&) noexcept = default;

bool
ChunkDecoder::decode(const std::uint8_t *data, std::size_t avail,
                     TraceChunk &out, std::size_t *consumed,
                     std::string *why)
{
    ChunkFrameHeader hdr;
    if (!peekFrame(data, avail, &hdr, why))
        return false;

    const std::uint8_t *p = data + sizeof(hdr);
    const std::uint8_t *frame_end = data + hdr.frameBytes;
    if (frame_end - p <
        static_cast<std::ptrdiff_t>(hdr.eventCount))
        return fail(why, "kind array extends past frame");
    const std::uint8_t *kinds = p;
    p += hdr.eventCount;

    // Slice out the length-prefixed streams.
    std::array<const std::uint8_t *, NumStreams> sdata{};
    std::array<std::size_t, NumStreams> slen{};
    {
        Cursor directory{p, frame_end};
        for (unsigned s = 0; s < NumStreams; ++s) {
            std::uint64_t len = 0;
            if (!directory.readVarint(&len))
                return fail(why, "truncated stream directory");
            if (len > static_cast<std::uint64_t>(directory.end -
                                                 directory.p))
                return fail(why, "stream extends past frame");
            sdata[s] = directory.p;
            slen[s] = static_cast<std::size_t>(len);
            directory.p += len;
        }
        if (!directory.exhausted())
            return fail(why, "trailing bytes after last stream");
    }

    // Stage 1: bulk-decode every varint stream into its lane (the SIMD
    // kernels behind decodeVarints). Lanes hold the raw zigzag deltas;
    // assemble rebuilds absolute values inline while it consumes each
    // lane in encode order, so the deltas are read exactly once instead
    // of taking a separate serial prefix-sum pass over every lane. A
    // malformed varint anywhere rejects the frame, exactly as the
    // per-value reader would have once it reached it.
    Impl &im = *impl_;
    for (unsigned s = 0; s < NumStreams; ++s) {
        if (s == CycFlags) {
            im.count[s] = slen[s];
            continue;
        }
        // One slot past the value count (<= slen bytes) so assemble's
        // branchless gated-field reads may touch lane[count] safely.
        im.ensure(s, slen[s] + 1);
        if (!decodeVarints(sdata[s], slen[s], im.lanes[s].get(),
                           &im.count[s]))
            return fail(why, "malformed varint stream");
    }

    if (!im.assemble(hdr, kinds, sdata[CycFlags], out, why))
        return false;
    *consumed = hdr.frameBytes;
    return true;
}

bool
decodeChunk(const std::uint8_t *data, std::size_t avail, TraceChunk &out,
            std::size_t *consumed, std::string *why)
{
    ChunkDecoder decoder;
    return decoder.decode(data, avail, out, consumed, why);
}

} // namespace tea
