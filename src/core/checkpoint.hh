/**
 * @file
 * Architectural checkpointing for time-parallel simulation (DESIGN.md,
 * "Time-parallel simulation").
 *
 * A cheap functional pre-pass executes the program with the oracle
 * executor (isa/executor) — no timing, no trace — and records a
 * checkpoint of the full architectural state at chosen committed-uop
 * boundaries: register file, resume pc, and a mark into a store-delta
 * log from which the memory image at that point can be materialized.
 * Because the timing model executes instructions functionally at fetch
 * along the correct path, a dynamic-instruction boundary is all a
 * restarted Core needs to reproduce the architectural suffix exactly;
 * the microarchitectural state (caches, TLBs, predictor, LSQ history)
 * starts cold and is the restarting caller's warmup problem.
 *
 * Memory is checkpointed as deltas, not images: the only memory
 * mutations in the ISA are stores (isa/executor writes one aligned
 * word per St/Fst), so a log of (word address, value-after) pairs in
 * program order plus a per-checkpoint prefix mark reconstructs the
 * image at any checkpoint by replaying the prefix onto a copy of the
 * initial state. Later writes to the same word simply overwrite, so
 * replay is idempotent and order within the prefix is the only
 * invariant.
 *
 * One piece of *microarchitectural* state is checkpointed exactly: the
 * branch predictor. The core trains it at fetch along the oracle
 * correct path, one update() per conditional branch whose return value
 * is the prediction, so its state is a pure function of the
 * architectural branch sequence — the pre-pass replays that
 * sequence and snapshots the predictor at each checkpoint, and a
 * restarted Core is handed serial-identical predictor state for free.
 *
 * Caches and TLBs are warmed *approximately*: each checkpoint carries
 * the most recent data-side accesses preceding its boundary
 * (ArchCheckpoint::warmAccesses) plus the code-line fetch history and
 * an exact snapshot of a functional L2 TLB model, which a restarted
 * core replays and installs (Core::warmFromCheckpoint) to populate
 * tags, LRU order and TLBs before its timing warmup leg. LSQ history
 * and in-flight timing state still start cold; converging the residue
 * is the restarting caller's warmup problem (analysis/parallel_sim),
 * and the verify oracle plus serial fallback are the correctness
 * guarantee.
 */

#ifndef TEA_CORE_CHECKPOINT_HH
#define TEA_CORE_CHECKPOINT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/memory_system.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace tea {

class BranchPredictor;

/**
 * One architectural checkpoint: everything needed to resume execution
 * at a dynamic-instruction boundary (used with the Core start-pc
 * constructor after materializeState()).
 */
struct ArchCheckpoint
{
    std::uint64_t uops = 0;  ///< dynamic instructions executed before pc
    InstIndex pc = 0;        ///< next instruction to execute
    std::array<std::uint64_t, numArchRegs> regs{};
    std::size_t memMark = 0; ///< CheckpointPlan::memLog prefix applied

    /**
     * Immutable predictor snapshot at this boundary, bit-identical to
     * the serial timing core's state at the same dynamic instruction;
     * null when the pre-pass ran without a core config. Shared, never
     * mutated — restarting cores clone() their own working copy.
     */
    std::shared_ptr<const BranchPredictor> predictor;

    /**
     * The most recent data-side accesses (loads, stores, software
     * prefetches) preceding this boundary, oldest first — the
     * functional cache-warming stream for Core::warmFromCheckpoint().
     * Bounded to a generous multiple of the modelled cache footprint
     * in lines (enough accesses that even a streaming pattern touching
     * each line several times spans every LLC way); empty when
     * the pre-pass ran without a core config. Unlike the predictor
     * snapshot this is an approximation: replaying it reproduces
     * tag/LRU/TLB contents of the demand stream, not the exact
     * prefetch/MSHR interleavings of the timing run.
     */
    std::vector<WarmAccess> warmAccesses;

    /**
     * Code-side warm state. Unlike data, the instruction footprint is
     * small and long-lived: the serial run inserts each code line into
     * the LLC exactly once (at its first L1I miss, near program start)
     * and the L1I then hits forever, so whether a code line is still in
     * the LLC at this boundary depends only on how much data churn the
     * set has seen since — which the warm replay reproduces naturally
     * if the code lines are touched *first*. codeFirstTouch is every
     * code line ever fetched, in first-fetch order (replayed as
     * ifetches at the start of the warm window); codeLastUse is the
     * same set in last-fetch order (installed into the L1I/ITLB after
     * the replay so their contents and LRU order match the serial
     * core's).
     */
    std::vector<Addr> codeFirstTouch;
    std::vector<Addr> codeLastUse;

    /**
     * Exact content of a functional L2 TLB model fed the program-order
     * translation stream (instruction-side per code-line transition,
     * data-side per load/store) from program start. The direct-mapped
     * L2 has unbounded memory — it can hold pages last touched long
     * before any bounded warm window — so it is snapshotted like the
     * predictor rather than warmed. Installed over the replay's
     * window-local inserts (MemorySystem::installL2Tlb).
     */
    std::vector<std::pair<std::uint32_t, Addr>> l2Tlb;
};

/** One store recorded by the pre-pass (word-aligned, value-after). */
struct MemDelta
{
    Addr addr = 0;
    std::uint64_t value = 0;
};

/** Pre-pass result: the checkpoint stream plus the shared delta log. */
struct CheckpointPlan
{
    std::vector<ArchCheckpoint> checkpoints;
    std::vector<MemDelta> memLog;   ///< every store, in program order
    std::uint64_t totalUops = 0;    ///< dynamic instructions to halt
    bool halted = false;            ///< pre-pass reached Halt in budget

    /** Interval geometry the checkpoints were planned for. */
    std::uint64_t intervalUops = 0;
    std::uint64_t warmupUops = 0;
};

/**
 * Run the functional pre-pass from @p initial and record a checkpoint
 * at every uop count j*interval_uops - warmup_uops (j >= 1) — the
 * warmup entry point of each time-parallel interval after the first.
 * Requires 0 < warmup_uops < interval_uops.
 *
 * When @p cfg is non-null the pre-pass also trains a branch predictor
 * of the configured kind along the walk and stores an exact snapshot
 * in each checkpoint (see ArchCheckpoint::predictor).
 *
 * Stops at Halt or after @p max_uops instructions; plan.halted says
 * which. A plan with halted == false is unusable for time-parallel
 * simulation (the caller falls back to a plain timing run, which owns
 * the does-not-terminate diagnostic).
 */
CheckpointPlan buildCheckpoints(const Program &prog,
                                const ArchState &initial,
                                std::uint64_t interval_uops,
                                std::uint64_t warmup_uops,
                                std::uint64_t max_uops = 1ULL << 33,
                                const CoreConfig *cfg = nullptr);

/**
 * Materialize the architectural state at @p ck: copy @p initial and
 * replay the first ck.memMark entries of plan.memLog onto it.
 */
ArchState materializeState(const ArchState &initial,
                           const CheckpointPlan &plan,
                           const ArchCheckpoint &ck);

} // namespace tea

#endif // TEA_CORE_CHECKPOINT_HH
