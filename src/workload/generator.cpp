#include "workload/generator.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/symbols.hpp"

namespace actyp::workload {

namespace {
SymbolList InternAll(const std::vector<std::string>& texts) {
  SymbolList out;
  out.reserve(texts.size());
  for (const auto& text : texts) out.push_back(Intern(text));
  return out;
}
}  // namespace

void BuildFleet(const FleetSpec& spec, Rng& rng,
                db::ResourceDatabase* database,
                db::ShadowAccountRegistry* shadows) {
  std::vector<double> arch_weights;
  arch_weights.reserve(spec.archs.size());
  for (const auto& [name, weight] : spec.archs) arch_weights.push_back(weight);

  // The fleet's vocabulary is interned once per call, not per machine:
  // param keys, each arch with its ostype, the domain, the group lists
  // and each cluster's cN / labN.
  const Symbol arch_key = Intern("arch"), cluster_key = Intern("cluster"),
               domain_key = Intern("domain"), ostype_key = Intern("ostype"),
               owner_key = Intern("owner");
  std::vector<std::pair<Symbol, Symbol>> arch_ostype;
  arch_ostype.reserve(spec.archs.size());
  for (const auto& [name, weight] : spec.archs) {
    arch_ostype.emplace_back(Intern(name),
                             Intern(name == "linux" ? "linux" : "unix"));
  }
  const Symbol domain = Intern(spec.domain);
  const SymbolList user_groups = InternAll(spec.user_groups);
  const SymbolList tool_groups = InternAll(spec.tool_groups);
  // Machine i lands in stripe[i % stripe.size()]; (cN, labN) per slot.
  std::vector<std::pair<Symbol, Symbol>> stripe;
  const std::size_t slots = spec.cluster_ids.empty()
                                ? std::max<std::size_t>(1, spec.cluster_count)
                                : spec.cluster_ids.size();
  stripe.reserve(slots);
  for (std::size_t k = 0; k < slots; ++k) {
    const std::string id = std::to_string(
        spec.cluster_ids.empty() ? k : spec.cluster_ids[k]);
    stripe.emplace_back(Intern("c" + id), Intern("lab" + id));
  }

  database->Reserve(database->size() + spec.machine_count);
  std::string text;  // scratch for the per-machine strings
  for (std::size_t i = 0; i < spec.machine_count; ++i) {
    db::MachineRecord rec;
    text.assign("m").append(std::to_string(i)).append(".");
    text.append(spec.domain).append(".edu");
    rec.name = text;
    rec.state = db::MachineState::kUp;
    rec.effective_speed = rng.Uniform(spec.min_speed, spec.max_speed);
    rec.num_cpus = rng.Bernoulli(0.15) ? 2 : 1;
    rec.max_allowed_load = 1.0;
    rec.dyn.load = 0.0;
    rec.dyn.available_memory_mb =
        spec.memory_choices_mb[rng.NextBounded(spec.memory_choices_mb.size())];
    rec.dyn.available_swap_mb = rec.dyn.available_memory_mb * 2;
    rec.dyn.service_flags = db::kExecutionUnitUp | db::kPvfsManagerUp;
    rec.execution_unit_port = spec.base_port;
    rec.pvfs_mount_port = static_cast<std::uint16_t>(spec.base_port + 1);
    rec.user_groups = user_groups;
    rec.tool_groups = tool_groups;
    text.assign("/etc/punch/machines/").append(rec.name);
    rec.object_path = Intern(text);

    const auto& [cluster, owner] = stripe[i % stripe.size()];
    const auto& [arch, ostype] = arch_ostype[rng.WeightedIndex(arch_weights)];
    rec.params.reserve(5);
    rec.params.Set(arch_key, arch);
    rec.params.Set(cluster_key, cluster);
    rec.params.Set(domain_key, domain);
    rec.params.Set(ostype_key, ostype);
    rec.params.Set(owner_key, owner);

    if (shadows != nullptr && spec.shadow_accounts_per_machine > 0) {
      text.assign("shadow.").append(rec.name);
      rec.shadow_pool = Intern(text);
      shadows->GetOrCreate(rec.shadow_pool,
                           static_cast<std::uint32_t>(20000 + i * 100),
                           spec.shadow_accounts_per_machine);
    }

    auto added = database->Add(std::move(rec));
    if (!added.ok()) {
      ACTYP_WARN << "fleet: " << added.status().ToString();
    }
  }
}

QueryGenerator::QueryGenerator(QuerySpec spec) : spec_(std::move(spec)) {
  const std::size_t clusters = std::max<std::size_t>(1, spec_.cluster_count);
  std::vector<std::string> texts;
  texts.reserve(clusters);
  for (std::size_t c = 0; c < clusters; ++c) texts.push_back(Render(c));
  texts_ = std::make_shared<const std::vector<std::string>>(std::move(texts));
}

const std::string& QueryGenerator::Next(Rng& rng) const {
  std::size_t cluster;
  if (spec_.hot_fraction > 0.0 && rng.Bernoulli(spec_.hot_fraction)) {
    cluster = 0;
  } else {
    cluster = rng.NextBounded(texts_->size());
  }
  return (*texts_)[cluster];
}

std::string QueryGenerator::ForCluster(std::size_t c) const {
  return c < texts_->size() ? (*texts_)[c] : Render(c);
}

std::string QueryGenerator::Render(std::size_t c) const {
  std::string text;
  text += "punch.rsrc.cluster = c" + std::to_string(c) + "\n";
  if (spec_.include_memory_constraint) {
    text += "punch.rsrc.memory = >=" + std::to_string(
                                           static_cast<long long>(
                                               spec_.min_memory_mb)) +
            "\n";
  }
  text += "punch.user.login = " + spec_.user_login + "\n";
  text += "punch.user.accessgroup = " + spec_.access_group + "\n";
  return text;
}

}  // namespace actyp::workload
