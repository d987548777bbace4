#include "core/branch_predictor.hh"

#include "common/logging.hh"

namespace tea {

// --- gshare -----------------------------------------------------------

GsharePredictor::GsharePredictor(const CoreConfig &cfg)
    : table_(cfg.bpTableEntries, 1), // weakly not-taken
      historyMask_((1ULL << cfg.bpHistoryBits) - 1)
{
    tea_assert((cfg.bpTableEntries & (cfg.bpTableEntries - 1)) == 0,
               "predictor table size must be a power of two");
}

std::size_t
GsharePredictor::index(InstIndex pc) const
{
    std::uint64_t h = history_ & historyMask_;
    return static_cast<std::size_t>((pc ^ h) & (table_.size() - 1));
}

bool
GsharePredictor::predict(InstIndex pc) const
{
    return table_[index(pc)] >= 2;
}

bool
GsharePredictor::update(InstIndex pc, bool taken)
{
    std::uint8_t &ctr = table_[index(pc)];
    const bool predicted = ctr >= 2;
    account(predicted, taken);
    if (taken && ctr < 3)
        ++ctr;
    else if (!taken && ctr > 0)
        --ctr;
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    return predicted;
}

std::uint64_t
GsharePredictor::storageBits() const
{
    return 2ULL * table_.size();
}

// --- TAGE-lite --------------------------------------------------------

constexpr std::array<unsigned, TagePredictor::numTables>
    TagePredictor::historyLengths;

TagePredictor::TagePredictor(const CoreConfig &cfg)
    : bimodal_(8192, 1)
{
    (void)cfg;
    static_assert(historyLengths[numTables - 1] <=
                      64 * std::tuple_size_v<decltype(history_)>,
                  "history_ too short for the longest component");
    for (unsigned t = 0; t < numTables; ++t) {
        tables_[t].resize(1u << tableBits);
        indexFold_[t] = {0, tableBits, historyLengths[t] % tableBits};
        tagFold_[t] = {0, tagBits, historyLengths[t] % tagBits};
    }
}

std::size_t
TagePredictor::indexOf(unsigned table, InstIndex pc) const
{
    std::uint64_t h = indexFold_[table].value;
    std::uint64_t v = pc ^ (pc >> tableBits) ^ h ^
                      (static_cast<std::uint64_t>(table) << 3);
    return static_cast<std::size_t>(v & ((1ULL << tableBits) - 1));
}

std::uint16_t
TagePredictor::tagOf(unsigned table, InstIndex pc) const
{
    std::uint64_t h = tagFold_[table].value;
    std::uint64_t v = pc ^ (pc >> 5) ^ (h << 1) ^ table;
    return static_cast<std::uint16_t>(v & ((1ULL << tagBits) - 1));
}

int
TagePredictor::bestMatch(InstIndex pc) const
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
TagePredictor::predictWith(int table, InstIndex pc) const
{
    if (table < 0)
        return bimodal_[pc & (bimodal_.size() - 1)] >= 2;
    const TaggedEntry &e =
        tables_[static_cast<unsigned>(table)]
               [indexOf(static_cast<unsigned>(table), pc)];
    return e.counter >= 4;
}

bool
TagePredictor::predict(InstIndex pc) const
{
    return predictWith(bestMatch(pc), pc);
}

bool
TagePredictor::update(InstIndex pc, bool taken)
{
    int provider = bestMatch(pc);
    bool predicted = predictWith(provider, pc);
    account(predicted, taken);

    // Train the provider.
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

    // On a mispredict, allocate in one longer-history table.
    if (predicted != taken && provider < static_cast<int>(numTables) - 1) {
        allocSeed_ = allocSeed_ * 6364136223846793005ULL + 1;
        unsigned start = static_cast<unsigned>(provider + 1);
        // Prefer a not-useful entry; probe tables in increasing order
        // with a pseudo-random skip to avoid ping-ponging.
        unsigned first = start + static_cast<unsigned>(
                                     (allocSeed_ >> 32) %
                                     (numTables - start)) %
                                     (numTables - start);
        bool allocated = false;
        for (unsigned t = first; t < numTables && !allocated; ++t) {
            TaggedEntry &e = tables_[t][indexOf(t, pc)];
            if (e.useful == 0) {
                e.tag = tagOf(t, pc);
                e.counter = taken ? 4 : 3; // weak in the right direction
                allocated = true;
            }
        }
        if (!allocated) {
            // Decay usefulness so future allocations can succeed.
            for (unsigned t = start; t < numTables; ++t) {
                TaggedEntry &e = tables_[t][indexOf(t, pc)];
                if (e.useful > 0)
                    --e.useful;
            }
        }
    }

    // Shift the global history (newest outcome into bit 0), carrying
    // each fold along: the bit leaving a component's window is history
    // bit len-1 before the shift.
    for (unsigned t = 0; t < numTables; ++t) {
        const unsigned top = historyLengths[t] - 1;
        const bool out = (history_[top / 64] >> (top % 64)) & 1;
        indexFold_[t].push(taken, out);
        tagFold_[t].push(taken, out);
    }
    history_[1] = (history_[1] << 1) | (history_[0] >> 63);
    history_[0] = (history_[0] << 1) | (taken ? 1 : 0);
    return predicted;
}

std::uint64_t
TagePredictor::storageBits() const
{
    std::uint64_t bits = 2ULL * bimodal_.size();
    for (const auto &t : tables_)
        bits += t.size() * (tagBits + 3 + 2);
    return bits;
}

std::unique_ptr<BranchPredictor>
makePredictor(const CoreConfig &cfg)
{
    switch (cfg.predictor) {
      case PredictorKind::Tage:
        return std::make_unique<TagePredictor>(cfg);
      case PredictorKind::Gshare:
        return std::make_unique<GsharePredictor>(cfg);
    }
    tea_panic("unknown predictor kind");
}

} // namespace tea
