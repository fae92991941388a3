#include "tuning/decision.h"

#include <cstdlib>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "tuning/baked.h"

namespace tuning {

namespace {

const char* const kOpNames[kNumOps] = {"allgather",       "allgatherv",
                                       "bcast",           "allreduce",
                                       "bridge_exchange", "socket_staging",
                                       "chunk_size",      "loc_bruck",
                                       "batch_window"};
const char* const kShapeNames[kNumShapes] = {"net", "shm"};

/// Per-op algorithm name tables, indexed by the algo:: constants.
const std::vector<const char*>& algo_names(Op op) {
    static const std::vector<const char*> names[kNumOps] = {
        {"recursive_doubling", "bruck", "ring"},         // Allgather
        {"bruck", "ring"},                               // Allgatherv
        {"binomial", "pipelined"},                       // Bcast
        {"recursive_doubling", "ring"},                  // Allreduce
        {"allgatherv", "pipelined", "bruckv",            // BridgeExchange
         "neighbor_exchange"},
        {"flat", "staged"},                              // SocketStaging
        {"whole", "pipelined"},                          // ChunkSize
        {"per_leader", "combined"},                      // LocBruck
        {"off", "fused"},                                // BatchWindow
    };
    return names[static_cast<int>(op)];
}

}  // namespace

const char* op_name(Op op) { return kOpNames[static_cast<int>(op)]; }
const char* shape_name(Shape shape) {
    return kShapeNames[static_cast<int>(shape)];
}

int algo_count(Op op) { return static_cast<int>(algo_names(op).size()); }

const char* algo_name(Op op, std::uint8_t a) {
    const auto& names = algo_names(op);
    return a < names.size() ? names[a] : "";
}

void DecisionTable::set(Op op, Shape shape, int comm_size,
                        std::uint64_t bytes, Choice choice) {
    grid_[static_cast<int>(op)][static_cast<int>(shape)][comm_size][bytes] =
        choice;
}

namespace {

/// Round @p q to the geometrically nearest of the two bracketing grid keys:
/// the upper neighbor wins iff q lies above the geometric mean of the
/// bracket, i.e. lo * hi < q * q. Exact at grid points; clamps outside the
/// grid range; ties round down.
template <typename Map, typename Key>
typename Map::const_iterator nearest_log(const Map& m, Key q) {
    auto hi = m.lower_bound(q);
    if (hi == m.end()) return std::prev(m.end());
    if (hi == m.begin() || hi->first == q) return hi;
    auto lo = std::prev(hi);
    const auto prod = static_cast<unsigned __int128>(lo->first) *
                      static_cast<unsigned __int128>(hi->first);
    const auto qq = static_cast<unsigned __int128>(q) *
                    static_cast<unsigned __int128>(q);
    return prod < qq ? hi : lo;
}

}  // namespace

std::optional<Choice> DecisionTable::lookup(Op op, Shape shape, int comm_size,
                                            std::uint64_t bytes) const {
    const auto& by_size =
        grid_[static_cast<int>(op)][static_cast<int>(shape)];
    if (by_size.empty()) return std::nullopt;
    const auto row = nearest_log(by_size, comm_size);
    const auto cell = nearest_log(row->second, bytes);
    return cell->second;
}

bool DecisionTable::empty() const {
    for (int op = 0; op < kNumOps; ++op) {
        for (int sh = 0; sh < kNumShapes; ++sh) {
            if (!grid_[op][sh].empty()) return false;
        }
    }
    return true;
}

std::size_t DecisionTable::entries(Op op) const {
    std::size_t n = 0;
    for (int sh = 0; sh < kNumShapes; ++sh) {
        for (const auto& [size, row] : grid_[static_cast<int>(op)][sh]) {
            n += row.size();
        }
    }
    return n;
}

std::string DecisionTable::serialize() const {
    std::ostringstream os;
    os << "# hympi tuned decision table v1\n";
    os << "profile " << profile_ << "\n";
    os << "seed " << seed_ << "\n";
    for (int op = 0; op < kNumOps; ++op) {
        for (int sh = 0; sh < kNumShapes; ++sh) {
            for (const auto& [size, row] : grid_[op][sh]) {
                for (const auto& [bytes, choice] : row) {
                    os << "entry " << kOpNames[op] << " " << kShapeNames[sh]
                       << " " << size << " " << bytes << " "
                       << algo_name(static_cast<Op>(op), choice.algo) << " "
                       << choice.segment_bytes << "\n";
                }
            }
        }
    }
    return os.str();
}

DecisionTable DecisionTable::parse(std::string_view text) {
    DecisionTable t;
    std::istringstream is{std::string(text)};
    std::string line;
    int lineno = 0;
    auto fail = [&](const std::string& what) {
        throw std::runtime_error("decision table line " +
                                 std::to_string(lineno) + ": " + what);
    };
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;
        if (kw == "profile") {
            ls >> t.profile_;
        } else if (kw == "seed") {
            ls >> t.seed_;
        } else if (kw == "entry") {
            std::string op_s, shape_s, algo_s;
            int size = 0;
            std::uint64_t bytes = 0;
            std::uint32_t seg = 0;
            ls >> op_s >> shape_s >> size >> bytes >> algo_s >> seg;
            if (!ls) fail("malformed entry");
            int op = -1, sh = -1;
            for (int i = 0; i < kNumOps; ++i) {
                if (op_s == kOpNames[i]) op = i;
            }
            for (int i = 0; i < kNumShapes; ++i) {
                if (shape_s == kShapeNames[i]) sh = i;
            }
            if (op < 0) fail("unknown op '" + op_s + "'");
            if (sh < 0) fail("unknown shape '" + shape_s + "'");
            if (size < 1) fail("comm size must be >= 1");
            const auto& names = algo_names(static_cast<Op>(op));
            int a = -1;
            for (std::size_t i = 0; i < names.size(); ++i) {
                if (algo_s == names[i]) a = static_cast<int>(i);
            }
            if (a < 0) fail("unknown algorithm '" + algo_s + "'");
            t.grid_[op][sh][size][bytes] =
                Choice{static_cast<std::uint8_t>(a), seg};
        } else {
            fail("unknown keyword '" + kw + "'");
        }
    }
    if (t.profile_.empty()) {
        throw std::runtime_error("decision table: missing profile line");
    }
    return t;
}

namespace {

struct Registry {
    std::mutex mu;
    bool baked_loaded = false;
    std::unordered_map<std::string, DecisionTable> overrides;
    std::unordered_map<std::string, DecisionTable> baked;

    /// Call with mu held.
    void ensure_loaded() {
        if (baked_loaded) return;
        baked_loaded = true;
        int count = 0;
        const baked::BakedTable* tables = baked::tables(&count);
        for (int i = 0; i < count; ++i) {
            DecisionTable t = DecisionTable::parse(tables[i].text);
            if (t.profile() != tables[i].name) {
                throw std::runtime_error(
                    "baked decision table profile mismatch: " + t.profile());
            }
            baked.emplace(t.profile(), std::move(t));
        }
    }
};

Registry& registry() {
    static Registry r;
    return r;
}

}  // namespace

const DecisionTable* find_table(std::string_view profile) {
    if (const char* off = std::getenv("HYMPI_TUNING_DISABLE");
        off != nullptr && off[0] != '\0' && off[0] != '0') {
        return nullptr;
    }
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.ensure_loaded();
    const std::string key(profile);
    if (auto it = r.overrides.find(key); it != r.overrides.end()) {
        return &it->second;
    }
    if (auto it = r.baked.find(key); it != r.baked.end()) {
        return &it->second;
    }
    return nullptr;
}

void register_table(DecisionTable table) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.overrides.insert_or_assign(table.profile(), std::move(table));
}

void unregister_table(std::string_view profile) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.overrides.erase(std::string(profile));
}

}  // namespace tuning
