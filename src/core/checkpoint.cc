#include "core/checkpoint.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "core/branch_predictor.hh"
#include "core/config.hh"
#include "core/tlb.hh"
#include "isa/memory.hh"

namespace tea {

namespace {

/**
 * Append the checkpoint at (count, pc) to the plan. The snapshot
 * itself is allocation-free when no predictor is trained — the
 * register file is an inline array and the memory image is a mark into
 * the shared delta log, not a copy — so the only heap traffic is the
 * (reserved, amortized) vector growth plus the optional predictor
 * clone (one bounded table copy per checkpoint, K per run).
 */
// tea_lint: hot
void
recordCheckpoint(CheckpointPlan &plan, std::uint64_t count, InstIndex pc,
                 const ArchState &st, const BranchPredictor *bp)
{
    plan.checkpoints.emplace_back();
    ArchCheckpoint &ck = plan.checkpoints.back();
    ck.uops = count;
    ck.pc = pc;
    ck.regs = st.regs;
    ck.memMark = plan.memLog.size();
    if (bp)
        ck.predictor = bp->clone();
}

} // namespace

// tea_lint: hot
CheckpointPlan
buildCheckpoints(const Program &prog, const ArchState &initial,
                 std::uint64_t interval_uops, std::uint64_t warmup_uops,
                 std::uint64_t max_uops, const CoreConfig *cfg)
{
    tea_assert(interval_uops > 0, "checkpoint interval must be > 0");
    tea_assert(warmup_uops > 0 && warmup_uops < interval_uops,
               "warmup %llu must be in (0, interval %llu)",
               static_cast<unsigned long long>(warmup_uops),
               static_cast<unsigned long long>(interval_uops));

    CheckpointPlan plan;
    plan.intervalUops = interval_uops;
    plan.warmupUops = warmup_uops;
    // Pre-sized for the common case: growth past these marks is
    // amortized doubling, once, outside any per-instruction path.
    plan.checkpoints.reserve(64);
    plan.memLog.reserve(std::size_t(1) << 16);

    ArchState st = initial;
    InstIndex pc = prog.entry();
    std::uint64_t count = 0;
    std::uint64_t next_ck = interval_uops - warmup_uops;

    // Shadow predictor trained along the walk: update() per
    // conditional branch, exactly the sequence the timing core applies
    // at fetch (oracle correct path; the core reads its prediction from
    // update()'s return and makes no other predictor call).
    std::unique_ptr<BranchPredictor> bp;
    if (cfg)
        bp = makePredictor(*cfg);

    // Warm log: ring of the most recent data-side accesses, sized to a
    // generous multiple of the modelled cache footprint in lines. The
    // multiple matters because the window is counted in *accesses* but
    // must cover the footprint in *unique lines*: a streaming workload
    // touches each line many times (8B stride = 8 accesses per line)
    // before moving on, so a window of 2x-footprint accesses reaches
    // only a quarter of the LLC's lines. Fixed capacity — the
    // per-instruction cost is one slot write, no allocation (tea_lint:
    // hot path of the pre-pass).
    std::vector<WarmAccess> warmRing;
    std::size_t warmHead = 0; ///< oldest entry once the ring is full
    std::size_t warmCap = 0;

    // Functional TLB model fed the full program-order translation
    // stream: the direct-mapped L2 has unbounded memory (a page last
    // touched millions of instructions ago survives until its slot
    // conflicts), so no bounded replay window can reconstruct it — it
    // is modelled exactly and snapshotted per checkpoint instead. The
    // L1 models matter only as miss filters: which accesses reach the
    // L2 (and thus which slot writes happen, in which order) depends on
    // them.
    std::unique_ptr<L2Tlb> l2Model;
    std::unique_ptr<TlbHierarchy> itlbModel;
    std::unique_ptr<TlbHierarchy> dtlbModel;

    // Code-line fetch history: first- and last-touch sequence per code
    // line ever fetched (see ArchCheckpoint::codeFirstTouch).
    struct CodeTouch
    {
        std::uint64_t first = 0;
        std::uint64_t last = 0;
    };
    std::unordered_map<Addr, CodeTouch> codeTouch;
    Addr prevCodeLine = ~Addr(0);

    if (cfg) {
        warmCap = std::size_t(16) *
                  (cfg->llc.sizeBytes + cfg->l1d.sizeBytes) / lineBytes;
        warmRing.reserve(warmCap);
        // One-time setup before the instruction loop, not per-uop work.
        // tea_lint: allow(hot-alloc)
        l2Model = std::make_unique<L2Tlb>(cfg->tlb.l2Entries);
        // tea_lint: allow(hot-alloc)
        itlbModel =
            std::make_unique<TlbHierarchy>(cfg->tlb, *l2Model, "itlb-pre");
        // tea_lint: allow(hot-alloc)
        dtlbModel =
            std::make_unique<TlbHierarchy>(cfg->tlb, *l2Model, "dtlb-pre");
    }

    while (count < max_uops) {
        if (count == next_ck) {
            recordCheckpoint(plan, count, pc, st, bp.get());
            ArchCheckpoint &ck = plan.checkpoints.back();
            if (!warmRing.empty()) {
                // Unroll the ring oldest-first into the checkpoint's
                // own copy (one bounded allocation per checkpoint).
                std::vector<WarmAccess> &wa = ck.warmAccesses;
                wa.reserve(warmRing.size());
                wa.insert(wa.end(), warmRing.begin() + warmHead,
                          warmRing.end());
                wa.insert(wa.end(), warmRing.begin(),
                          warmRing.begin() + warmHead);
            }
            if (cfg) {
                ck.l2Tlb = l2Model->snapshotValid();
                // Code lines in first- and last-fetch order (the
                // footprint is a handful of lines; the sort is noise).
                std::vector<std::pair<std::uint64_t, Addr>> order;
                order.reserve(codeTouch.size());
                for (const auto &[line, t] : codeTouch)
                    order.emplace_back(t.first, line);
                std::sort(order.begin(), order.end());
                ck.codeFirstTouch.reserve(order.size());
                for (const auto &[seq, line] : order)
                    ck.codeFirstTouch.push_back(line);
                order.clear();
                for (const auto &[line, t] : codeTouch)
                    order.emplace_back(t.last, line);
                std::sort(order.begin(), order.end());
                ck.codeLastUse.reserve(order.size());
                for (const auto &[seq, line] : order)
                    ck.codeLastUse.push_back(line);
            }
            next_ck += interval_uops;
        }
        const StaticInst &si = prog.inst(pc);
        if (cfg) {
            // Instruction side, before execute (fetch order): feed the
            // ITLB model and the touch history per code-line
            // transition — repeats within a line neither reach the L2
            // nor change which line was fetched last.
            const Addr fetchAddr = prog.pcOf(pc);
            const Addr line = lineOf(fetchAddr);
            if (line != prevCodeLine) {
                prevCodeLine = line;
                itlbModel->translate(fetchAddr);
                CodeTouch &t = codeTouch[line];
                if (t.first == 0)
                    t.first = count + 1;
                t.last = count + 1;
            }
        }
        ExecResult er = execute(prog, pc, st);
        ++count;
        if (bp && si.isCondBranch())
            bp->update(pc, er.taken);
        if (cfg && (si.isLoad() || si.isStore()))
            dtlbModel->translate(er.memAddr);
        if (warmCap && si.isMem()) {
            WarmAccess wa;
            wa.addr = er.memAddr;
            wa.kind = si.isLoad()    ? WarmAccess::Load
                      : si.isStore() ? WarmAccess::Store
                                     : WarmAccess::Prefetch;
            if (warmRing.size() < warmCap) {
                warmRing.push_back(wa);
            } else {
                warmRing[warmHead] = wa;
                warmHead = (warmHead + 1) % warmCap;
            }
        }
        if (si.isStore()) {
            // The executor wrote exactly one aligned word; read it
            // back so the log carries the value-after (idempotent
            // replay, no need to interpret the store semantics here).
            const Addr word = er.memAddr & ~Addr(7);
            plan.memLog.push_back(MemDelta{word, st.mem.read(word)});
        }
        if (er.halted) {
            plan.halted = true;
            break;
        }
        pc = er.nextPc;
    }
    plan.totalUops = count;
    return plan;
}

// tea_lint: hot
ArchState
materializeState(const ArchState &initial, const CheckpointPlan &plan,
                 const ArchCheckpoint &ck)
{
    tea_assert(ck.memMark <= plan.memLog.size(),
               "checkpoint memory mark %zu beyond log size %zu",
               ck.memMark, plan.memLog.size());
    // One state copy per restore is the floor for this operation (a
    // restarted core needs its own image); everything else below is
    // in-place word writes onto the copy's existing or demand-created
    // pages.
    ArchState st = initial;
    st.regs = ck.regs;
    for (std::size_t i = 0; i < ck.memMark; ++i)
        st.mem.write(plan.memLog[i].addr, plan.memLog[i].value);
    return st;
}

} // namespace tea
