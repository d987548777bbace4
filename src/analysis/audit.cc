#include "analysis/audit.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "analysis/runner.hh"
#include "common/logging.hh"
#include "core/trace_codec.hh"
#include "profilers/golden.hh"

namespace tea {

namespace {

/** Collected-violation cap: keep pathological traces bounded. */
constexpr std::size_t maxCollected = 1024;

} // namespace

InvariantAuditor::InvariantAuditor(Mode mode) : mode_(mode) {}

void
InvariantAuditor::report(const std::string &msg)
{
    if (mode_ == Mode::FailFast)
        tea_fatal("TEA audit: %s", msg.c_str());
    if (violations_.size() < maxCollected)
        violations_.push_back(msg);
}

bool
InvariantAuditor::checkPsv(const Psv &psv, const char *what, Cycle cycle,
                           SeqNum seq)
{
    if ((psv.bits() >> numEvents) == 0)
        return true;
    report(strprintf("illegal PSV bits 0x%x on %s (cycle %llu, seq "
                     "%llu): beyond the %u architectural events",
                     psv.bits(), what,
                     static_cast<unsigned long long>(cycle),
                     static_cast<unsigned long long>(seq), numEvents));
    return false;
}

void
InvariantAuditor::onCycle(const CycleRecord &rec)
{
    ++events_;
    ++cycles_;
    if (sawEnd_) {
        report(strprintf("cycle record %llu after the end marker "
                         "(end cycle %llu)",
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(endCycle_)));
    }

    // Dense, monotone cycle numbering: a dropped or duplicated cycle
    // record would silently re-weight every later attribution.
    if (sawCycle_ && rec.cycle != lastCycle_ + 1) {
        report(strprintf("non-contiguous cycle records: cycle %llu "
                         "follows cycle %llu (dropped or duplicated "
                         "cycle)",
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(lastCycle_)));
    }

    const unsigned state = static_cast<unsigned>(rec.state);
    if (state > static_cast<unsigned>(CommitState::Flushed)) {
        report(strprintf("illegal commit state %u at cycle %llu: not "
                         "one of the four paper states",
                         state,
                         static_cast<unsigned long long>(rec.cycle)));
    }

    if (rec.numCommitted > rec.committed.size()) {
        report(strprintf("commit count %u at cycle %llu overflows the "
                         "%zu-slot commit snapshot",
                         rec.numCommitted,
                         static_cast<unsigned long long>(rec.cycle),
                         rec.committed.size()));
    }

    // State / side-band consistency (Section 2's state machine).
    const bool compute = rec.state == CommitState::Compute;
    if (compute != (rec.numCommitted > 0)) {
        report(strprintf("state %s at cycle %llu with %u committed "
                         "uops",
                         commitStateName(rec.state),
                         static_cast<unsigned long long>(rec.cycle),
                         rec.numCommitted));
    }
    if (rec.state == CommitState::Stalled && !rec.headValid) {
        report(strprintf("Stalled cycle %llu without a valid ROB head",
                         static_cast<unsigned long long>(rec.cycle)));
    }
    if (rec.state != CommitState::Stalled && rec.headValid) {
        report(strprintf("%s cycle %llu carries a ROB head snapshot "
                         "(only Stalled cycles may)",
                         commitStateName(rec.state),
                         static_cast<unsigned long long>(rec.cycle)));
    }

    // Committed uops: monotone seqs that continue the retire stream.
    const unsigned committed =
        std::min<unsigned>(rec.numCommitted,
                           static_cast<unsigned>(rec.committed.size()));
    for (unsigned i = 0; i < committed; ++i) {
        const CommittedUop &u = rec.committed[i];
        if (u.seq == invalidSeqNum || u.pc == invalidInstIndex) {
            report(strprintf("committed slot %u of cycle %llu is "
                             "uninitialized (seq %llu, pc %u)",
                             i,
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(u.seq),
                             u.pc));
            continue;
        }
        if (sawCommit_ && u.seq <= lastCommitSeq_) {
            report(strprintf("non-monotonic commit seq %llu at cycle "
                             "%llu (youngest committed was %llu)",
                             static_cast<unsigned long long>(u.seq),
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(
                                 lastCommitSeq_)));
        }
        if (sawDispatch_ && u.seq > lastDispatchSeq_) {
            report(strprintf("seq %llu commits at cycle %llu but never "
                             "dispatched (last dispatch %llu)",
                             static_cast<unsigned long long>(u.seq),
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(
                                 lastDispatchSeq_)));
        }
        checkPsv(u.psv, "committed uop", rec.cycle, u.seq);
        lastCommitSeq_ = u.seq;
        sawCommit_ = true;
    }

    // The retires delivered since the previous cycle record must be
    // exactly this cycle's commit snapshot: same uops, same PSVs, same
    // cycle. This is the cross-check that catches a replay path (codec,
    // queue, cache) delivering divergent event streams to different
    // observers.
    if (pendingRetires_.size() != committed) {
        report(strprintf("cycle %llu committed %u uops but %zu retire "
                         "events were delivered for it",
                         static_cast<unsigned long long>(rec.cycle),
                         committed, pendingRetires_.size()));
    } else {
        for (unsigned i = 0; i < committed; ++i) {
            const RetireRecord &r = pendingRetires_[i];
            const CommittedUop &u = rec.committed[i];
            if (r.seq != u.seq || r.pc != u.pc || r.psv != u.psv ||
                r.cycle != rec.cycle) {
                report(strprintf(
                    "retire/commit mismatch at cycle %llu slot %u: "
                    "retired (seq %llu, pc %u, psv 0x%x, cycle %llu) "
                    "vs committed (seq %llu, pc %u, psv 0x%x)",
                    static_cast<unsigned long long>(rec.cycle), i,
                    static_cast<unsigned long long>(r.seq), r.pc,
                    r.psv.bits(),
                    static_cast<unsigned long long>(r.cycle),
                    static_cast<unsigned long long>(u.seq), u.pc,
                    u.psv.bits()));
            }
        }
    }
    pendingRetires_.clear();

    // Last-committed side-band: valid from the first commit on, and in
    // a Compute cycle it names the youngest uop of this very cycle.
    if (sawCommit_ && !rec.lastValid) {
        report(strprintf("lastValid regressed at cycle %llu after an "
                         "earlier commit",
                         static_cast<unsigned long long>(rec.cycle)));
    }
    if (compute && committed > 0 && rec.lastValid) {
        const CommittedUop &y = rec.committed[committed - 1];
        if (rec.lastPc != y.pc || rec.lastPsv != y.psv) {
            report(strprintf("last-committed snapshot (pc %u, psv "
                             "0x%x) at cycle %llu disagrees with the "
                             "youngest committed uop (seq %llu, pc %u, "
                             "psv 0x%x)",
                             rec.lastPc, rec.lastPsv.bits(),
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(y.seq),
                             y.pc, y.psv.bits()));
        }
    }
    if (rec.lastValid)
        checkPsv(rec.lastPsv, "last-committed snapshot", rec.cycle,
                 invalidSeqNum);

    // ROB head monotonicity: the head never moves backwards and is
    // always younger than everything already committed.
    if (rec.headValid) {
        if (rec.headSeq == invalidSeqNum) {
            report(strprintf("Stalled cycle %llu with an uninitialized "
                             "ROB head seq",
                             static_cast<unsigned long long>(
                                 rec.cycle)));
        } else {
            if (sawCommit_ && rec.headSeq <= lastCommitSeq_) {
                report(strprintf(
                    "ROB head seq %llu at cycle %llu is not younger "
                    "than the youngest committed seq %llu",
                    static_cast<unsigned long long>(rec.headSeq),
                    static_cast<unsigned long long>(rec.cycle),
                    static_cast<unsigned long long>(lastCommitSeq_)));
            }
            if (sawHead_ && rec.headSeq < lastHeadSeq_) {
                report(strprintf(
                    "ROB head moved backwards at cycle %llu: seq %llu "
                    "after seq %llu",
                    static_cast<unsigned long long>(rec.cycle),
                    static_cast<unsigned long long>(rec.headSeq),
                    static_cast<unsigned long long>(lastHeadSeq_)));
            }
            lastHeadSeq_ = rec.headSeq;
            sawHead_ = true;
        }
    }

    lastCycle_ = rec.cycle;
    sawCycle_ = true;
}

void
InvariantAuditor::onDispatch(const UopRecord &rec)
{
    ++events_;
    if (sawEnd_)
        report(strprintf("dispatch of seq %llu after the end marker",
                         static_cast<unsigned long long>(rec.seq)));
    if (sawDispatch_ && rec.seq <= lastDispatchSeq_) {
        report(strprintf("non-monotonic dispatch seq %llu at cycle "
                         "%llu (previous %llu)",
                         static_cast<unsigned long long>(rec.seq),
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(
                             lastDispatchSeq_)));
    }
    if (sawFetch_ && rec.seq > lastFetchSeq_) {
        report(strprintf("seq %llu dispatches at cycle %llu before "
                         "fetching (last fetch %llu)",
                         static_cast<unsigned long long>(rec.seq),
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(lastFetchSeq_)));
    }
    lastDispatchSeq_ = rec.seq;
    sawDispatch_ = true;
}

void
InvariantAuditor::onFetch(const UopRecord &rec)
{
    ++events_;
    if (sawEnd_)
        report(strprintf("fetch of seq %llu after the end marker",
                         static_cast<unsigned long long>(rec.seq)));
    if (sawFetch_ && rec.seq <= lastFetchSeq_) {
        report(strprintf("non-monotonic fetch seq %llu at cycle %llu "
                         "(previous %llu)",
                         static_cast<unsigned long long>(rec.seq),
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(lastFetchSeq_)));
    }
    lastFetchSeq_ = rec.seq;
    sawFetch_ = true;
}

void
InvariantAuditor::onRetire(const RetireRecord &rec)
{
    ++events_;
    if (sawEnd_)
        report(strprintf("retire of seq %llu after the end marker",
                         static_cast<unsigned long long>(rec.seq)));
    if (sawRetire_ && rec.seq <= lastRetireSeq_) {
        report(strprintf("non-monotonic retire seq %llu at cycle %llu "
                         "(previous %llu)",
                         static_cast<unsigned long long>(rec.seq),
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(
                             lastRetireSeq_)));
    }
    // Retires are delivered while their commit cycle is in flight: the
    // matching cycle record (same cycle number) follows them.
    if (sawCycle_ && rec.cycle != lastCycle_ + 1) {
        report(strprintf("retire of seq %llu carries cycle %llu while "
                         "cycle %llu is in flight",
                         static_cast<unsigned long long>(rec.seq),
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(lastCycle_ +
                                                         1)));
    }
    checkPsv(rec.psv, "retired uop", rec.cycle, rec.seq);
    lastRetireSeq_ = rec.seq;
    sawRetire_ = true;
    pendingRetires_.push_back(rec);
}

void
InvariantAuditor::onEnd(Cycle final_cycle)
{
    ++events_;
    if (sawEnd_) {
        report(strprintf("duplicate end marker (cycle %llu after "
                         "cycle %llu)",
                         static_cast<unsigned long long>(final_cycle),
                         static_cast<unsigned long long>(endCycle_)));
        return;
    }
    // The end marker carries the total cycle count: one past the last
    // cycle record (records are 0-based and dense).
    if (sawCycle_ && final_cycle != lastCycle_ + 1) {
        report(strprintf("end marker cycle %llu disagrees with the "
                         "%llu cycle records delivered (last cycle "
                         "%llu)",
                         static_cast<unsigned long long>(final_cycle),
                         static_cast<unsigned long long>(cycles_),
                         static_cast<unsigned long long>(lastCycle_)));
    }
    if (!pendingRetires_.empty()) {
        report(strprintf("end marker at cycle %llu with %zu retires "
                         "not covered by a cycle record (first seq "
                         "%llu)",
                         static_cast<unsigned long long>(final_cycle),
                         pendingRetires_.size(),
                         static_cast<unsigned long long>(
                             pendingRetires_.front().seq)));
    }
    endCycle_ = final_cycle;
    sawEnd_ = true;
}

void
InvariantAuditor::finish()
{
    if (events_ > 0 && !sawCycle_) {
        report(strprintf("audited trace delivered %llu events but no "
                         "cycle record",
                         static_cast<unsigned long long>(events_)));
    }
}

std::string
auditCycleConservation(const GoldenReference &golden,
                       std::uint64_t total_cycles)
{
    const double attributed =
        golden.pics().total() + golden.droppedCycles();
    const double want = static_cast<double>(total_cycles);
    // Attribution splits each Compute cycle 1/n across n committing
    // uops, so exact conservation holds in exact arithmetic; 0.5 cycles
    // of float headroom is orders of magnitude above the accumulated
    // rounding while still catching any whole dropped/duplicated cycle.
    if (std::abs(attributed - want) <= 0.5)
        return std::string();
    return strprintf("cycle conservation violated: %.6f cycles "
                     "attributed (%.6f in the PICS + %.6f dropped "
                     "tail) vs %llu simulated",
                     attributed, golden.pics().total(),
                     golden.droppedCycles(),
                     static_cast<unsigned long long>(total_cycles));
}

std::string
auditPicsIdentical(const Pics &a, const Pics &b)
{
    if (a.size() != b.size()) {
        return strprintf("Pics differ: %zu vs %zu (unit, signature) "
                         "components",
                         a.size(), b.size());
    }
    if (a.total() != b.total()) {
        return strprintf("Pics totals differ bitwise: %.17g vs %.17g",
                         a.total(), b.total());
    }
    for (const PicsComponent &c : a.components()) {
        const double other = b.cycles(c.unit, c.signature);
        if (c.cycles != other) {
            return strprintf("Pics cell (unit %u, signature 0x%x) "
                             "differs bitwise: %.17g vs %.17g",
                             c.unit, c.signature, c.cycles, other);
        }
    }
    return std::string();
}

FingerprintSink::FingerprintSink()
    : sink_(4096, [this](TraceChunkPtr chunk) {
          frame_.clear();
          encodeChunk(*chunk, frame_);
          hash_.addBytes(frame_.data(), frame_.size());
          ++chunks_;
      })
{
}

std::uint64_t
digestPics(const Pics &p)
{
    std::vector<PicsComponent> comps = p.components();
    std::sort(comps.begin(), comps.end(),
              [](const PicsComponent &a, const PicsComponent &b) {
                  return a.unit != b.unit ? a.unit < b.unit
                                          : a.signature < b.signature;
              });
    Fnv1a h;
    auto addDouble = [&](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        h.add(bits);
    };
    for (const PicsComponent &c : comps) {
        h.add(c.unit);
        h.add(c.signature);
        addDouble(c.cycles);
    }
    addDouble(p.total());
    return h.value();
}

std::uint64_t
digestResult(const ExperimentResult &r)
{
    Fnv1a h;
    h.add(digestPics(r.golden->pics()));
    for (const TechniqueResult &t : r.techniques) {
        h.add(std::string_view(t.config.name));
        h.add(digestPics(t.pics));
        h.add(t.samplesTaken);
        h.add(t.samplesDropped);
    }
    h.add(r.stats.cycles);
    h.add(r.stats.committedUops);
    return h.value();
}

} // namespace tea
