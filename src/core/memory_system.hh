/**
 * @file
 * The per-core memory hierarchy: L1I, L1D (with MSHRs and a next-line
 * prefetcher) and L1 TLBs, backed by an Uncore (LLC + DRAM + shared L2
 * TLB). Single-core systems let MemorySystem own a private Uncore;
 * multi-core systems pass a shared one. All timing is computed
 * analytically: an access performed at cycle `now` returns the absolute
 * cycle its data is available.
 */

#ifndef TEA_CORE_MEMORY_SYSTEM_HH
#define TEA_CORE_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/cache.hh"
#include "core/config.hh"
#include "core/tlb.hh"
#include "core/uncore.hh"

namespace tea {

/** Timing and event outcome of a data-side access. */
struct MemAccessResult
{
    Cycle done = 0;      ///< absolute cycle the data is available
    bool l1Miss = false; ///< missed in the L1 D-cache (ST-L1)
    bool llcMiss = false; ///< missed in the LLC (ST-LLC)
};

/** Timing and event outcome of an instruction fetch. */
struct IFetchResult
{
    Cycle done = 0;       ///< absolute cycle the fetch packet is ready
    bool l1Miss = false;  ///< missed in the L1 I-cache (DR-L1)
    bool itlbMiss = false; ///< missed in the L1 I-TLB (DR-TLB)
};

/**
 * One data-side access recorded by the checkpoint pre-pass
 * (core/checkpoint) for functional cache warming: enough to replay
 * the demand stream through the hierarchy without timing.
 */
struct WarmAccess
{
    enum Kind : std::uint8_t
    {
        Load = 0,
        Store = 1,
        Prefetch = 2,
    };

    Addr addr = 0;
    std::uint8_t kind = Load;
};

/** The L1-level memory system of one core. */
class MemorySystem
{
  public:
    /** Single-core: owns a private Uncore. */
    explicit MemorySystem(const CoreConfig &cfg);

    /** Multi-core: uses the shared @p uncore (not owned). */
    MemorySystem(const CoreConfig &cfg, Uncore &uncore);

    /** Translate a data address (load/store execute). */
    TlbResult dataTranslate(Addr addr) { return dtlb_.translate(addr); }

    /**
     * Demand load of @p addr at cycle @p now (post-translation); fills
     * the hierarchy and triggers the next-line prefetcher.
     */
    MemAccessResult load(Addr addr, Cycle now);

    /**
     * Post-commit store drain: writes @p addr, fetching the line on a
     * write miss (write-allocate, write-back).
     */
    MemAccessResult storeDrain(Addr addr, Cycle now);

    /** Software prefetch of @p addr into the L1 D-cache. */
    MemAccessResult prefetch(Addr addr, Cycle now);

    /** Instruction fetch of the line containing @p pc. */
    IFetchResult ifetch(Addr pc, Cycle now);

    /**
     * Functionally warm the hierarchy: first fetch each of
     * @p code_lines once (the serial run inserted each code line into
     * the LLC exactly once, at its first L1I miss near program start,
     * so fetching them *before* the data window lets the window's churn
     * age them out of the LLC exactly when the serial run's did), then
     * replay @p accesses (in program order) as widely spaced demand
     * accesses: tags, LRU state, TLBs and next-line-prefetch effects
     * end up approximately where a timing run over the same stream
     * would leave them. Transient timing state accumulated by the
     * replay (MSHR fills, the DRAM bandwidth clock) is reset afterwards
     * so a timing run can start at cycle 0. Only meaningful on a core
     * with a private uncore, before any timing cycles have run — the
     * warming exists for checkpoint-resumed cores
     * (analysis/parallel_sim), which satisfy both.
     */
    void warmReplay(const std::vector<Addr> &code_lines,
                    const std::vector<WarmAccess> &accesses);

    /**
     * Install the L1I/ITLB end-state after warmReplay: touch each code
     * line of @p lines (oldest-to-newest last-fetch order) in the L1I
     * and its page in the ITLB, without LLC side effects. The serial
     * core's L1I holds every code line ever fetched (the instruction
     * footprint fits) with LRU order equal to last-fetch order; this
     * reproduces that directly instead of hoping the warmup leg
     * re-fetches rare lines (it cannot — e.g. init code runs once).
     */
    void installCodeLines(const std::vector<Addr> &lines);

    /**
     * Overwrite the shared L2 TLB with a checkpoint snapshot (see
     * ArchCheckpoint::l2Tlb). Must run after warmReplay and
     * installCodeLines — their page walks insert a window-local
     * approximation this replaces with the exact model content.
     */
    void installL2Tlb(
        const std::vector<std::pair<std::uint32_t, Addr>> &slots);

    /**
     * Forget in-flight timing state (MSHR fills, the DRAM bandwidth
     * clock) while keeping tag/LRU contents. Used at the end of
     * warmReplay; see there.
     */
    void resetTransientTiming();

    /**
     * Mix the hierarchy's complete *behavioral* state into @p h with
     * absolute cycles rebased to @p base: cache and TLB contents in
     * relative LRU order, live MSHR fills as (line, fill - base), the
     * uncore likewise. Two hierarchies with equal fingerprints at
     * their respective base cycles evolve identically under identical
     * access streams — the convergence-acceptance test of the
     * time-parallel stitcher (analysis/parallel_sim). Statistics are
     * excluded on purpose. Only meaningful with a private uncore.
     */
    void fingerprintState(Fnv1a &h, Cycle base) const;

    // Inspection for tests and reports.
    const CacheArray &l1i() const { return l1i_; }
    const CacheArray &l1d() const { return l1d_; }
    const CacheArray &llc() const { return uncore_->llc(); }
    const TlbHierarchy &dtlbHierarchy() const { return dtlb_; }
    Uncore &uncore() { return *uncore_; }
    std::uint64_t dramLineTransfers() const
    {
        return uncore_->dramLineTransfers();
    }

  private:
    /**
     * L1D fill path shared by loads, store drains and prefetches.
     * Handles MSHR merging/allocation and the next-line prefetcher.
     */
    MemAccessResult l1dAccess(Addr line, Cycle now, bool is_store,
                              bool demand);

    const CoreConfig &cfg_;
    std::unique_ptr<Uncore> ownedUncore_; ///< single-core convenience
    Uncore *uncore_;
    CacheArray l1i_;
    CacheArray l1d_;
    MshrFile l1dMshrs_;
    MshrFile l1iMshrs_;
    TlbHierarchy dtlb_;
    TlbHierarchy itlb_;
};

} // namespace tea

#endif // TEA_CORE_MEMORY_SYSTEM_HH
