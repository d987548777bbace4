/**
 * @file
 * Differential tests of the per-event kernels of simulate-and-store:
 * the TAGE predictor's folded-history registers against the bit-by-bit
 * fold they replaced, and the slice-by-8 CRC-32 against a bytewise
 * reference. Both feed bit-identical contracts (simulated timing and
 * on-disk frames), so equality is required at every step, not on
 * aggregate counts.
 */

#include <array>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <vector>

#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "core/branch_predictor.hh"

using namespace tea;

namespace {

/**
 * The TAGE-lite predictor as it was before its history folds became
 * shift registers: each lookup folds the raw history one bit at a time.
 * Kept verbatim (tables, hashes, allocation) as the reference.
 */
class BitLoopTage
{
  public:
    BitLoopTage() : bimodal_(8192, 1)
    {
        for (auto &t : tables_)
            t.resize(1u << tableBits);
    }

    bool predict(InstIndex pc) const { return predictWith(bestMatch(pc), pc); }

    /** Train; returns the prediction trained against. */
    bool
    update(InstIndex pc, bool taken)
    {
        int provider = bestMatch(pc);
        bool predicted = predictWith(provider, pc);
        if (predicted != taken)
            ++mispredicts;

        if (provider < 0) {
            std::uint8_t &ctr = bimodal_[pc & (bimodal_.size() - 1)];
            if (taken && ctr < 3)
                ++ctr;
            else if (!taken && ctr > 0)
                --ctr;
        } else {
            TaggedEntry &e = tables_[static_cast<unsigned>(provider)]
                                    [indexOf(static_cast<unsigned>(provider),
                                             pc)];
            if (taken && e.counter < 7)
                ++e.counter;
            else if (!taken && e.counter > 0)
                --e.counter;
            if (predicted == taken) {
                if (e.useful < 3)
                    ++e.useful;
            } else if (e.useful > 0) {
                --e.useful;
            }
        }

        if (predicted != taken &&
            provider < static_cast<int>(numTables) - 1) {
            allocSeed_ = allocSeed_ * 6364136223846793005ULL + 1;
            unsigned start = static_cast<unsigned>(provider + 1);
            unsigned first = start + static_cast<unsigned>(
                                         (allocSeed_ >> 32) %
                                         (numTables - start)) %
                                         (numTables - start);
            bool allocated = false;
            for (unsigned t = first; t < numTables && !allocated; ++t) {
                TaggedEntry &e = tables_[t][indexOf(t, pc)];
                if (e.useful == 0) {
                    e.tag = tagOf(t, pc);
                    e.counter = taken ? 4 : 3;
                    allocated = true;
                }
            }
            if (!allocated) {
                for (unsigned t = start; t < numTables; ++t) {
                    TaggedEntry &e = tables_[t][indexOf(t, pc)];
                    if (e.useful > 0)
                        --e.useful;
                }
            }
        }

        for (unsigned w = history_.size() - 1; w > 0; --w)
            history_[w] = (history_[w] << 1) | (history_[w - 1] >> 63);
        history_[0] = (history_[0] << 1) | (taken ? 1 : 0);
        return predicted;
    }

    std::uint64_t mispredicts = 0;

  private:
    static constexpr unsigned numTables = 5;
    static constexpr unsigned tableBits = 11;
    static constexpr unsigned tagBits = 10;
    static constexpr std::array<unsigned, numTables> historyLengths{
        4, 10, 24, 56, 128};

    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::uint8_t counter = 3;
        std::uint8_t useful = 0;
    };

    std::uint64_t
    foldedHistory(unsigned len, unsigned bits) const
    {
        std::uint64_t folded = 0;
        for (unsigned i = 0; i < len; i += bits) {
            std::uint64_t chunk = 0;
            for (unsigned b = 0; b < bits && i + b < len; ++b) {
                unsigned pos = i + b;
                std::uint64_t word = history_[pos / 64];
                chunk |= ((word >> (pos % 64)) & 1ULL) << b;
            }
            folded ^= chunk;
        }
        return folded & ((1ULL << bits) - 1);
    }

    std::size_t
    indexOf(unsigned table, InstIndex pc) const
    {
        std::uint64_t h = foldedHistory(historyLengths[table], tableBits);
        std::uint64_t v = pc ^ (pc >> tableBits) ^ h ^
                          (static_cast<std::uint64_t>(table) << 3);
        return static_cast<std::size_t>(v & ((1ULL << tableBits) - 1));
    }

    std::uint16_t
    tagOf(unsigned table, InstIndex pc) const
    {
        std::uint64_t h = foldedHistory(historyLengths[table], tagBits);
        std::uint64_t v = pc ^ (pc >> 5) ^ (h << 1) ^ table;
        return static_cast<std::uint16_t>(v & ((1ULL << tagBits) - 1));
    }

    int
    bestMatch(InstIndex pc) const
    {
        for (int t = numTables - 1; t >= 0; --t) {
            const TaggedEntry &e =
                tables_[static_cast<unsigned>(t)]
                       [indexOf(static_cast<unsigned>(t), pc)];
            if (e.tag == tagOf(static_cast<unsigned>(t), pc))
                return t;
        }
        return -1;
    }

    bool
    predictWith(int table, InstIndex pc) const
    {
        if (table < 0)
            return bimodal_[pc & (bimodal_.size() - 1)] >= 2;
        const TaggedEntry &e =
            tables_[static_cast<unsigned>(table)]
                   [indexOf(static_cast<unsigned>(table), pc)];
        return e.counter >= 4;
    }

    std::vector<std::uint8_t> bimodal_;
    std::array<std::vector<TaggedEntry>, numTables> tables_;
    std::array<std::uint64_t, 4> history_{};
    std::uint64_t allocSeed_ = 0x1234567;
};

/**
 * One conditional branch per step from a mix of behaviours: fair
 * coins, heavily biased branches, a period-37 pattern and a loop whose
 * 150-iteration trip count outruns the longest (128-bit) history.
 */
struct BranchMix
{
    Rng rng{0x7a9e};
    std::uint64_t step = 0;

    std::pair<InstIndex, bool>
    next()
    {
        ++step;
        const unsigned kind = static_cast<unsigned>(rng.below(4));
        // Several PCs per kind, some high enough to exercise the
        // pc >> tableBits term of the index hash.
        const InstIndex pc = static_cast<InstIndex>(
            (kind << 4) + rng.below(3) + (kind == 3 ? 0x7ffff000u : 64u));
        switch (kind) {
          case 0:
            return {pc, rng.chance(0.5)};
          case 1:
            return {pc, rng.chance(0.93)};
          case 2:
            return {pc, step % 37 < 23};
          default:
            return {pc, step % 150 != 0};
        }
    }
};

} // namespace

TEST(TageFoldedHistory, MatchesBitLoopFoldAtEveryStep)
{
    CoreConfig cfg;
    TagePredictor tage(cfg);
    BitLoopTage ref;
    BranchMix mix;
    std::unique_ptr<BranchPredictor> clone;
    std::unique_ptr<BitLoopTage> cloneRef;

    constexpr std::uint64_t kSteps = 1'200'000;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        const auto [pc, taken] = mix.next();
        if (i == kSteps / 2) {
            // A mid-stream snapshot (what the checkpoint pre-pass hands
            // a restarted core) must carry the registers along.
            clone = tage.clone();
            cloneRef = std::make_unique<BitLoopTage>(ref);
        }
        ASSERT_EQ(tage.predict(pc), ref.predict(pc)) << "step " << i;
        ASSERT_EQ(tage.update(pc, taken), ref.update(pc, taken))
            << "step " << i;
        ASSERT_EQ(tage.mispredicts, ref.mispredicts) << "step " << i;
        if (clone) {
            ASSERT_EQ(clone->update(pc, taken), cloneRef->update(pc, taken))
                << "clone, step " << i;
        }
    }
    EXPECT_EQ(tage.lookups, kSteps);
    EXPECT_EQ(clone->mispredicts - cloneRef->mispredicts,
              tage.mispredicts - ref.mispredicts);
    // Not a degenerate stream: the predictor learns, and still misses.
    EXPECT_GT(tage.mispredicts, kSteps / 20);
    EXPECT_LT(tage.mispredicts, kSteps / 3);
}

TEST(TageFoldedHistory, UpdateReturnsWhatPredictSaid)
{
    CoreConfig cfg;
    for (PredictorKind kind : {PredictorKind::Tage, PredictorKind::Gshare}) {
        cfg.predictor = kind;
        std::unique_ptr<BranchPredictor> bp = makePredictor(cfg);
        BranchMix mix;
        for (int i = 0; i < 20000; ++i) {
            const auto [pc, taken] = mix.next();
            const bool said = bp->predict(pc);
            const std::uint64_t missed = bp->mispredicts;
            ASSERT_EQ(bp->update(pc, taken), said) << "step " << i;
            ASSERT_EQ(bp->mispredicts - missed, said != taken ? 1u : 0u);
        }
    }
}

namespace {

/** The bytewise CRC-32 the slice-by-8 kernel must reproduce. */
std::uint32_t
bytewiseCrc32(std::uint32_t crc, const std::uint8_t *p, std::size_t n)
{
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t>
randomBytes(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<std::uint8_t> out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next());
    return out;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(0, check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(0, check.data(), 0), 0u);
    EXPECT_EQ(crc32(0, nullptr, 0), 0u);
}

TEST(Crc32, EveryShortLengthAndAlignmentMatchesBytewise)
{
    // Lengths around the 8-byte word, at every offset within a word, so
    // the word loop and the bytewise tail each start everywhere.
    const std::vector<std::uint8_t> bytes = randomBytes(0xc3c, 64 + 8);
    for (std::size_t off = 0; off < 8; ++off) {
        for (std::size_t len = 0; len <= 64; ++len) {
            SCOPED_TRACE(::testing::Message()
                         << "offset " << off << " length " << len);
            const std::uint8_t *p = bytes.data() + off;
            ASSERT_EQ(crc32(0, p, len), bytewiseCrc32(0, p, len));
            ASSERT_EQ(crc32(0xdeadbeefu, p, len),
                      bytewiseCrc32(0xdeadbeefu, p, len));
        }
    }
    const std::vector<std::uint8_t> big = randomBytes(0xb16, 1 << 20);
    EXPECT_EQ(crc32(0, big.data(), big.size()),
              bytewiseCrc32(0, big.data(), big.size()));
}

TEST(Crc32, RunningChecksumEqualsChecksumOfConcatenation)
{
    const std::vector<std::uint8_t> bytes = randomBytes(0xcc, 1000);
    const std::uint32_t whole = crc32(0, bytes.data(), bytes.size());
    for (std::size_t split : {std::size_t{0}, std::size_t{1},
                              std::size_t{7}, std::size_t{8},
                              std::size_t{13}, std::size_t{500},
                              std::size_t{999}, std::size_t{1000}}) {
        SCOPED_TRACE(split);
        const std::uint32_t head = crc32(0, bytes.data(), split);
        EXPECT_EQ(crc32(head, bytes.data() + split, bytes.size() - split),
                  whole);
    }
}
