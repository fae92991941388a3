// Autotuner regression suite (ctest label "tuning"):
//  - at every swept grid point, for both vendor profiles, the
//    table-selected algorithm is never slower in virtual time than the
//    previous hardcoded (threshold) choice;
//  - table lookup is deterministic and exact at grid points;
//  - serialize/parse round-trips;
//  - the checked-in baked tables exist and cover every tuned operation;
//  - every tuner candidate wins at least one baked row.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "minimpi/netmodel.h"
#include "tuning/autotuner.h"
#include "tuning/decision.h"

namespace {

using tuning::Choice;
using tuning::DecisionTable;
using tuning::Op;
using tuning::Shape;
using tuning::TuneConfig;

const Op kAllOps[] = {Op::Allgather, Op::Allgatherv, Op::Bcast,
                      Op::Allreduce, Op::BridgeExchange};

/// The quick grid, shared by the tests so each profile is tuned once.
const DecisionTable& quick_table(const minimpi::ModelParams& profile) {
    static std::map<std::string, DecisionTable> cache;
    auto it = cache.find(profile.name);
    if (it == cache.end()) {
        it = cache
                 .emplace(profile.name,
                          tuning::tune_profile(profile, TuneConfig::quick(),
                                               nullptr))
                 .first;
    }
    return it->second;
}

struct GridPoint {
    Op op;
    Shape shape;
    int comm_size;
    std::size_t bytes;
};

/// Every grid point the quick config sweeps (mirrors tune_profile's loops).
std::vector<GridPoint> quick_grid() {
    const TuneConfig cfg = TuneConfig::quick();
    std::vector<GridPoint> pts;
    auto sweep = [&pts](Op op, Shape shape, const std::vector<int>& sizes,
                        const std::vector<std::size_t>& bytes_list,
                        bool per_rank) {
        for (int s : sizes) {
            for (std::size_t b : bytes_list) {
                pts.push_back(
                    {op, shape, s,
                     per_rank ? b * static_cast<std::size_t>(s) : b});
            }
        }
    };
    sweep(Op::Allgather, Shape::Net, cfg.net_sizes, cfg.block_bytes, true);
    sweep(Op::Allgather, Shape::Shm, cfg.shm_sizes, cfg.block_bytes, true);
    sweep(Op::Allgatherv, Shape::Net, cfg.net_sizes, cfg.block_bytes, true);
    sweep(Op::Allgatherv, Shape::Shm, cfg.shm_sizes, cfg.block_bytes, true);
    sweep(Op::Bcast, Shape::Net, cfg.net_sizes, cfg.message_bytes, false);
    sweep(Op::Bcast, Shape::Shm, cfg.shm_sizes, cfg.message_bytes, false);
    sweep(Op::Allreduce, Shape::Net, cfg.net_sizes, cfg.message_bytes, false);
    sweep(Op::Allreduce, Shape::Shm, cfg.shm_sizes, cfg.message_bytes, false);
    sweep(Op::BridgeExchange, Shape::Net, cfg.bridge_sizes,
          cfg.bridge_block_bytes, false);
    return pts;
}

class TunedVsLegacyP : public ::testing::TestWithParam<const char*> {
protected:
    minimpi::ModelParams profile() const {
        return std::string(GetParam()) == "cray"
                   ? minimpi::ModelParams::cray()
                   : minimpi::ModelParams::openmpi();
    }
};

// The acceptance criterion of the tuning subsystem: at every swept grid
// point the tuned choice's virtual time is <= the legacy threshold
// choice's (the legacy choice is itself a candidate, so equality is always
// achievable; any regression means the argmin is broken).
TEST_P(TunedVsLegacyP, NeverSlowerThanHardcodedChoice) {
    const minimpi::ModelParams m = profile();
    const TuneConfig cfg = TuneConfig::quick();
    const DecisionTable& table = quick_table(m);
    // The bridge-exchange candidates that delegate to minimpi collectives
    // must run under the same tuned inner selection the tuner used.
    tuning::register_table(table);
    for (const GridPoint& g : quick_grid()) {
        const auto tuned =
            table.lookup(g.op, g.shape, g.comm_size, g.bytes);
        ASSERT_TRUE(tuned.has_value())
            << tuning::op_name(g.op) << " p=" << g.comm_size;
        const Choice legacy =
            tuning::legacy_choice(m, g.op, g.comm_size, g.bytes);
        const double t_tuned =
            tuning::measure(m, g.op, g.shape, g.comm_size, g.bytes, *tuned,
                            cfg);
        const double t_legacy = tuning::measure(m, g.op, g.shape,
                                                g.comm_size, g.bytes, legacy,
                                                cfg);
        EXPECT_LE(t_tuned, t_legacy + 1e-6)
            << tuning::op_name(g.op) << "/" << tuning::shape_name(g.shape)
            << " p=" << g.comm_size << " bytes=" << g.bytes << ": tuned "
            << tuning::algo_name(g.op, tuned->algo) << " vs legacy "
            << tuning::algo_name(g.op, legacy.algo);
    }
    tuning::unregister_table(m.name);
}

// Re-tuning with the same config must reproduce the table bit-for-bit
// (the simulator is deterministic; the seed is provenance, not noise).
TEST_P(TunedVsLegacyP, RetuneIsDeterministic) {
    const minimpi::ModelParams m = profile();
    const DecisionTable again =
        tuning::tune_profile(m, TuneConfig::quick(), nullptr);
    EXPECT_EQ(quick_table(m).serialize(), again.serialize());
}

TEST_P(TunedVsLegacyP, SerializeParseRoundTrip) {
    const DecisionTable& table = quick_table(profile());
    const std::string text = table.serialize();
    const DecisionTable parsed = DecisionTable::parse(text);
    EXPECT_EQ(parsed.profile(), table.profile());
    EXPECT_EQ(parsed.seed(), table.seed());
    EXPECT_EQ(parsed.serialize(), text);
}

// The baked tables shipped in src/tuning/tables/ must be present and cover
// every tuned operation for both vendor profiles.
TEST_P(TunedVsLegacyP, BakedTableCoversAllOps) {
    const tuning::DecisionTable* baked = tuning::find_table(GetParam());
    ASSERT_NE(baked, nullptr);
    EXPECT_EQ(baked->profile(), GetParam());
    for (Op op : kAllOps) {
        EXPECT_GT(baked->entries(op), 0u) << tuning::op_name(op);
    }
}

INSTANTIATE_TEST_SUITE_P(Profiles, TunedVsLegacyP,
                         ::testing::Values("cray", "openmpi"),
                         [](const auto& info) { return std::string(info.param); });

TEST(DecisionTable, LookupIsExactAtGridPointsAndRoundsInLogSpace) {
    DecisionTable t("test-profile", 7);
    t.set(Op::Bcast, Shape::Net, 8, 1024, Choice{0, 0});
    t.set(Op::Bcast, Shape::Net, 8, 65536, Choice{1, 8192});
    t.set(Op::Bcast, Shape::Net, 32, 1024, Choice{1, 2048});

    // Exact at grid points.
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 8, 1024)->algo, 0);
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 8, 65536)->segment_bytes,
              8192u);
    // Geometric midpoint of (1024, 65536) is 8192: below rounds down,
    // above rounds up.
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 8, 8000)->algo, 0);
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 8, 9000)->algo, 1);
    // Out-of-range clamps to the nearer end.
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 8, 1)->algo, 0);
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 8, 1 << 30)->algo, 1);
    // Comm-size axis rounds the same way: 8 vs 32, midpoint 16.
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 15, 1024)->segment_bytes, 0u);
    EXPECT_EQ(t.lookup(Op::Bcast, Shape::Net, 17, 1024)->segment_bytes,
              2048u);
    // Untuned (op, shape) pairs report "no entry".
    EXPECT_FALSE(t.lookup(Op::Allreduce, Shape::Net, 8, 0).has_value());
}

// A candidate no baked row picks is dead code in the tuner and in the
// runtime dispatch. Every algorithm id the full sweep offers for an op must
// win at least one row of the cray or openmpi table.
TEST(DecisionTable, EveryCandidateWinsABakedRow) {
    const TuneConfig cfg;
    std::set<std::pair<std::string, std::string>> chosen;  // (op, algo)
    for (const char* profile : {"cray", "openmpi"}) {
        const DecisionTable* baked = tuning::find_table(profile);
        ASSERT_NE(baked, nullptr) << profile;
        std::istringstream rows(baked->serialize());
        std::string line;
        while (std::getline(rows, line)) {
            std::istringstream ls(line);
            std::string kw, op, shape, size, bytes, algo;
            if (ls >> kw >> op >> shape >> size >> bytes >> algo &&
                kw == "entry") {
                chosen.emplace(op, algo);
            }
        }
    }
    auto merge = [](std::vector<int> a, const std::vector<int>& b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };
    const std::vector<int> flat_sizes = merge(cfg.net_sizes, cfg.shm_sizes);
    const std::pair<Op, std::vector<int>> swept[] = {
        {Op::Allgather, flat_sizes},      {Op::Allgatherv, flat_sizes},
        {Op::Bcast, flat_sizes},          {Op::Allreduce, flat_sizes},
        {Op::BridgeExchange, cfg.bridge_sizes},
        {Op::SocketStaging, cfg.shm_sizes},
        {Op::ChunkSize, cfg.shm_sizes},   {Op::LocBruck, cfg.bridge_sizes},
        {Op::BatchWindow, cfg.bridge_sizes},
    };
    static_assert(std::size(swept) == tuning::kNumOps);
    for (const auto& [op, sizes] : swept) {
        std::set<std::uint8_t> ids;
        for (int s : sizes) {
            for (const Choice& c : tuning::candidates(op, s, cfg)) {
                ids.insert(c.algo);
            }
        }
        for (std::uint8_t a : ids) {
            EXPECT_TRUE(chosen.count({tuning::op_name(op),
                                      tuning::algo_name(op, a)}))
                << tuning::op_name(op) << " candidate "
                << tuning::algo_name(op, a) << " wins no baked row";
        }
    }
}

TEST(DecisionTable, ParseRejectsMalformedInput) {
    EXPECT_THROW(DecisionTable::parse("entry allgather net 4 64 ring 0\n"),
                 std::runtime_error);  // missing profile line
    EXPECT_THROW(
        DecisionTable::parse("profile x\nentry allgather net 4 64 bogus 0\n"),
        std::runtime_error);
    EXPECT_THROW(
        DecisionTable::parse("profile x\nentry nosuchop net 4 64 ring 0\n"),
        std::runtime_error);
    EXPECT_THROW(DecisionTable::parse("profile x\nwhat 1 2\n"),
                 std::runtime_error);
}

// The "test" profile must stay table-free: unit tests that assert exact
// virtual times rely on the legacy selection.
TEST(DecisionTable, TestProfileHasNoBakedTable) {
    EXPECT_EQ(tuning::find_table("test"), nullptr);
}

}  // namespace
