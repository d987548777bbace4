#include "core/trace_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tea {

bool
eventsEquivalent(const TraceEvent &a, const TraceEvent &b)
{
    if (a.kind != b.kind)
        return false;
    switch (a.kind) {
      case TraceEventKind::Cycle: {
        const CycleRecord &x = a.p.cycle;
        const CycleRecord &y = b.p.cycle;
        if (x.cycle != y.cycle || x.state != y.state ||
            x.numCommitted != y.numCommitted ||
            x.headValid != y.headValid || x.lastValid != y.lastValid)
            return false;
        if (x.headValid &&
            (x.headSeq != y.headSeq || x.headPc != y.headPc))
            return false;
        if (x.lastValid &&
            (x.lastPc != y.lastPc || x.lastPsv != y.lastPsv))
            return false;
        for (unsigned i = 0; i < x.numCommitted; ++i) {
            if (x.committed[i].seq != y.committed[i].seq ||
                x.committed[i].pc != y.committed[i].pc ||
                x.committed[i].psv != y.committed[i].psv)
                return false;
        }
        return true;
      }
      case TraceEventKind::Dispatch:
      case TraceEventKind::Fetch:
        return a.p.uop.seq == b.p.uop.seq &&
               a.p.uop.pc == b.p.uop.pc &&
               a.p.uop.cycle == b.p.uop.cycle;
      case TraceEventKind::Retire:
        return a.p.retire.seq == b.p.retire.seq &&
               a.p.retire.pc == b.p.retire.pc &&
               a.p.retire.psv == b.p.retire.psv &&
               a.p.retire.cycle == b.p.retire.cycle;
      case TraceEventKind::End:
        return a.p.end == b.p.end;
    }
    return false;
}

void
TraceSink::onBatch(const TraceEvent *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        deliverEvent(events[i], *this);
}

void
deliverEvent(const TraceEvent &ev, TraceSink &sink)
{
    switch (ev.kind) {
      case TraceEventKind::Cycle:
        sink.onCycle(ev.p.cycle);
        break;
      case TraceEventKind::Dispatch:
        sink.onDispatch(ev.p.uop);
        break;
      case TraceEventKind::Fetch:
        sink.onFetch(ev.p.uop);
        break;
      case TraceEventKind::Retire:
        sink.onRetire(ev.p.retire);
        break;
      case TraceEventKind::End:
        sink.onEnd(ev.p.end);
        break;
    }
}

void
replayEvents(const TraceEvent *ev, std::size_t n,
             const std::vector<TraceSink *> &sinks)
{
    // Sink-major batched delivery: one onBatch call per sink per
    // End-free segment, instead of two virtual calls per (event, sink)
    // pair. Sinks are independent observers — each still sees every
    // event in capture order, only the interleaving across sinks
    // changes, which no observer can detect. End events keep their
    // dedicated onEnd call (the onBatch contract, core/trace.hh);
    // ChunkingSink closes a chunk right after End, so the scan below
    // almost always finds a single End-free segment.
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j < n && ev[j].kind != TraceEventKind::End)
            ++j;
        if (j > i) {
            for (TraceSink *s : sinks)
                s->onBatch(ev + i, j - i);
        }
        if (j < n) {
            for (TraceSink *s : sinks)
                s->onEnd(ev[j].p.end);
            ++j;
        }
        i = j;
    }
}

std::uint64_t
replayChunk(const TraceChunk &chunk, const std::vector<TraceSink *> &sinks)
{
    replayEvents(chunk.events.data(), chunk.events.size(), sinks);
    return chunk.cycleRecords;
}

ChunkingSink::ChunkingSink(std::size_t chunk_events, Emit emit)
    : chunkEvents_(chunk_events), emit_(std::move(emit))
{
    tea_assert(chunkEvents_ >= 1, "chunk size must be >= 1");
    tea_assert(emit_, "ChunkingSink needs an emit callback");
}

TraceEvent &
ChunkingSink::append(TraceEventKind kind)
{
    if (!open_) {
        open_ = std::make_shared<TraceChunk>();
        open_->events.reserve(chunkEvents_);
    }
    open_->events.emplace_back();
    TraceEvent &ev = open_->events.back();
    ev.kind = kind;
    ++events_;
    return ev;
}

void
ChunkingSink::onCycle(const CycleRecord &rec)
{
    TraceEvent &ev = append(TraceEventKind::Cycle);
    ev.p.cycle = rec;
    ++open_->cycleRecords;
    if (open_->events.size() >= chunkEvents_)
        finish();
}

void
ChunkingSink::onDispatch(const UopRecord &rec)
{
    append(TraceEventKind::Dispatch).p.uop = rec;
    if (open_->events.size() >= chunkEvents_)
        finish();
}

void
ChunkingSink::onFetch(const UopRecord &rec)
{
    append(TraceEventKind::Fetch).p.uop = rec;
    if (open_->events.size() >= chunkEvents_)
        finish();
}

void
ChunkingSink::onRetire(const RetireRecord &rec)
{
    append(TraceEventKind::Retire).p.retire = rec;
    if (open_->events.size() >= chunkEvents_)
        finish();
}

void
ChunkingSink::onEnd(Cycle final_cycle)
{
    append(TraceEventKind::End).p.end = final_cycle;
    finish();
}

void
ChunkingSink::onBatch(const TraceEvent *events, std::size_t n)
{
    // Bulk path: append whole ranges into the open chunk. Chunk
    // boundaries are byte-identical to record-at-a-time delivery — a
    // chunk closes exactly when it reaches chunkEvents_ events (or at
    // an End marker), the same points finish() fires on the per-record
    // path above.
    std::size_t i = 0;
    while (i < n) {
        if (!open_) {
            open_ = std::make_shared<TraceChunk>();
            open_->events.reserve(chunkEvents_);
        }
        std::size_t space = chunkEvents_ - open_->events.size();
        std::size_t take = std::min(space, n - i);
        for (std::size_t k = i; k < i + take; ++k) {
            if (events[k].kind == TraceEventKind::End) {
                take = k - i + 1; // close the chunk right after End
                break;
            }
        }
        open_->events.insert(open_->events.end(), events + i,
                             events + i + take);
        for (std::size_t k = i; k < i + take; ++k) {
            if (events[k].kind == TraceEventKind::Cycle)
                ++open_->cycleRecords;
        }
        events_ += take;
        i += take;
        if (open_->events.size() >= chunkEvents_ ||
            events[i - 1].kind == TraceEventKind::End)
            finish();
    }
}

void
ChunkingSink::finish()
{
    if (!open_)
        return;
    ++chunks_;
    emit_(std::move(open_));
    open_.reset();
}

TraceBuffer::TraceBuffer(std::size_t chunk_events)
    : sink_(chunk_events,
            [this](TraceChunkPtr c) { chunks_.push_back(std::move(c)); })
{
}

void
TraceBuffer::onCycle(const CycleRecord &rec)
{
    sink_.onCycle(rec);
}

void
TraceBuffer::onDispatch(const UopRecord &rec)
{
    sink_.onDispatch(rec);
}

void
TraceBuffer::onFetch(const UopRecord &rec)
{
    sink_.onFetch(rec);
}

void
TraceBuffer::onRetire(const RetireRecord &rec)
{
    sink_.onRetire(rec);
}

void
TraceBuffer::onEnd(Cycle final_cycle)
{
    sink_.onEnd(final_cycle);
}

void
TraceBuffer::onBatch(const TraceEvent *events, std::size_t n)
{
    sink_.onBatch(events, n);
}

void
TraceBuffer::finish()
{
    sink_.finish();
}

std::uint64_t
TraceBuffer::replay(const std::vector<TraceSink *> &sinks) const
{
    std::uint64_t cycles = 0;
    for (const TraceChunkPtr &c : chunks_)
        cycles += replayChunk(*c, sinks);
    return cycles;
}

} // namespace tea
