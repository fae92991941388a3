// tune_tables: offline autotuner CLI.
//
// Sweeps every candidate collective algorithm over the tuning grid in the
// virtual-time simulator and writes one decision table per vendor profile.
//
//   tune_tables [--profile cray|openmpi|all] [--seed N] [--quick]
//               [--out-dir DIR] [--format table|inc]
//
// --format table (default) writes plain serialized tables
// (DecisionTable::parse reads them back); --format inc wraps them in raw
// string literals for the checked-in baked tables:
//   ./build/src/tuning/tune_tables --format inc --out-dir src/tuning/tables

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "minimpi/netmodel.h"
#include "tuning/autotuner.h"

namespace {

int usage(const char* argv0, int code) {
    std::cerr << "usage: " << argv0
              << " [--profile cray|openmpi|all] [--seed N] [--quick]"
                 " [--out-dir DIR] [--format table|inc]\n";
    return code;
}

}  // namespace

int main(int argc, char** argv) {
    std::string profile = "all";
    std::string out_dir = ".";
    std::string format = "table";
    bool quick = false;
    std::uint64_t seed = 0;
    bool seed_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << arg << " requires a value\n";
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--profile") {
            profile = value();
        } else if (arg == "--seed") {
            seed = std::strtoull(value(), nullptr, 10);
            seed_set = true;
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--out-dir") {
            out_dir = value();
        } else if (arg == "--format") {
            format = value();
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return usage(argv[0], 2);
        }
    }
    if (format != "table" && format != "inc") {
        std::cerr << "unknown format: " << format << "\n";
        return usage(argv[0], 2);
    }

    std::vector<minimpi::ModelParams> profiles;
    if (profile == "cray" || profile == "all") {
        profiles.push_back(minimpi::ModelParams::cray());
    }
    if (profile == "openmpi" || profile == "all") {
        profiles.push_back(minimpi::ModelParams::openmpi());
    }
    if (profiles.empty()) {
        std::cerr << "unknown profile: " << profile << "\n";
        return usage(argv[0], 2);
    }

    tuning::TuneConfig cfg =
        quick ? tuning::TuneConfig::quick() : tuning::TuneConfig::full();
    if (seed_set) cfg.seed = seed;

    for (const minimpi::ModelParams& p : profiles) {
        const tuning::DecisionTable table =
            tuning::tune_profile(p, cfg, &std::cerr);
        const std::string text = table.serialize();
        const std::string path =
            out_dir + "/" + p.name + (format == "inc" ? ".inc" : ".table");
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write " << path << "\n";
            return 1;
        }
        if (format == "inc") {
            // A raw string literal ready for #include as an initializer.
            out << "R\"HYTBL(" << text << ")HYTBL\"\n";
        } else {
            out << text;
        }
        std::cerr << "wrote " << path << " ("
                  << table.entries(tuning::Op::BridgeExchange)
                  << " bridge entries)\n";
    }
    return 0;
}
