// actyp_fleet_tool: generate and inspect white-pages snapshots.
//
//   generate: actyp_fleet_tool gen <machines> <clusters> [seed] > fleet.db
//             (seed: a non-negative integer, 42 when omitted)
//   inspect:  actyp_fleet_tool info fleet.db
//
// Snapshots use the line format of db::MachineRecord::Serialize and can
// be loaded with db::ResourceDatabase::LoadFrom.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/strings.hpp"
#include "db/database.hpp"
#include "workload/generator.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  actyp_fleet_tool gen <machines> <clusters> [seed]\n"
               "  actyp_fleet_tool info <snapshot-file>\n");
  return 1;
}

int Generate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const auto machines = actyp::ParseInt(argv[2]);
  const auto clusters = actyp::ParseInt(argv[3]);
  if (!machines || !clusters || *machines <= 0 || *clusters <= 0) {
    return Usage();
  }
  std::uint64_t seed = 42;
  if (argc > 4) {
    const auto s = actyp::ParseInt(argv[4]);
    if (!s || *s < 0) return Usage();
    seed = static_cast<std::uint64_t>(*s);
  }

  actyp::db::ResourceDatabase database;
  actyp::workload::FleetSpec spec;
  spec.machine_count = static_cast<std::size_t>(*machines);
  spec.cluster_count = static_cast<std::size_t>(*clusters);
  actyp::Rng rng(seed);
  BuildFleet(spec, rng, &database, nullptr);
  std::fputs(database.Serialize().c_str(), stdout);
  return 0;
}

int Info(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", argv[2]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  actyp::db::ResourceDatabase database;
  const actyp::Status status = database.LoadFrom(buffer.str());
  if (!status.ok()) {
    std::fprintf(stderr, "parse error: %s\n", status.ToString().c_str());
    return 1;
  }

  std::map<std::string, int> by_arch, by_cluster, by_state;
  double total_memory = 0, total_speed = 0;
  int cpus = 0;
  database.VisitAll([&](const actyp::db::MachineRecord& rec) {
    auto arch = rec.params.find("arch");
    auto cluster = rec.params.find("cluster");
    ++by_arch[arch == rec.params.end() ? "?" : arch->second];
    ++by_cluster[cluster == rec.params.end() ? "?" : cluster->second];
    ++by_state[std::string(actyp::db::MachineStateName(rec.state))];
    total_memory += rec.dyn.available_memory_mb;
    total_speed += rec.effective_speed;
    cpus += rec.num_cpus;
  });

  std::printf("machines : %zu (%d cpus, %.1f GB memory, mean speed %.2f)\n",
              database.size(), cpus, total_memory / 1024.0,
              database.size() ? total_speed / static_cast<double>(database.size())
                              : 0.0);
  std::printf("states   :");
  for (const auto& [state, count] : by_state) {
    std::printf(" %s=%d", state.c_str(), count);
  }
  std::printf("\narchs    :");
  for (const auto& [arch, count] : by_arch) {
    std::printf(" %s=%d", arch.c_str(), count);
  }
  std::printf("\nclusters : %zu distinct", by_cluster.size());
  std::printf("\nfree     : %zu\n", database.free_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "gen") == 0) return Generate(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return Info(argc, argv);
  return Usage();
}
