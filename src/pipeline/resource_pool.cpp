#include "pipeline/resource_pool.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "obs/flight_recorder.hpp"

namespace actyp::pipeline {
namespace {
// Sentinel load marking a cache entry whose machine is down/blocked;
// large enough that no policy (or oversubscribe fallback) picks it.
constexpr double kUnusableLoad = 1e18;
}  // namespace

ResourcePool::ResourcePool(ResourcePoolConfig config,
                           db::ResourceDatabase* database,
                           directory::DirectoryApi* directory,
                           db::ShadowAccountRegistry* shadows,
                           db::PolicyRegistry* policies)
    : config_(std::move(config)),
      database_(database),
      directory_(directory),
      shadows_(shadows),
      policies_(policies) {
  auto policy = sched::MakePolicy(config_.policy);
  policy_ = policy.ok() ? std::move(policy.value())
                        : std::make_unique<sched::LeastLoadPolicy>();
  if (policy_->ordered()) {
    index_ = std::make_unique<sched::SchedulingIndex>(
        policy_.get(), config_.instance, config_.instance_count);
  }
}

ResourcePool::~ResourcePool() = default;

void ResourcePool::OnStart(net::NodeContext& ctx) {
  Initialize(ctx);
  if (config_.resort_period > 0) {
    ctx.ScheduleSelf(config_.resort_period, net::Message{net::msg::kTick});
  }
}

void ResourcePool::Initialize(net::NodeContext& ctx) {
  // First instance claims machines; replicas adopt the existing claim so
  // all instances of a pool see the same machine set (Fig. 8).
  std::vector<db::MachineId> ids = database_->ListTakenBy(config_.claim());
  if (ids.empty()) {
    ids = database_->ClaimMatching(config_.criteria, config_.claim(),
                                   config_.claim_limit);
  }

  cache_.clear();
  meta_.clear();
  meta_row_.clear();
  cache_.reserve(ids.size());
  meta_.reserve(ids.size());
  meta_row_.reserve(ids.size());
  any_user_groups_ = false;
  any_usage_policy_ = false;
  // Cursor first, read second: changes landing between the two are
  // re-applied by the first refresh tick, which is idempotent; taking
  // the cursor after the read could silently skip them.
  db_cursor_ = database_->version();
  database_->VisitRecords(ids, [this](std::size_t, const db::MachineRecord*
                                                      rec) {
    if (rec == nullptr) return;
    sched::CacheEntry entry;
    entry.id = rec->id;
    entry.load = rec->dyn.load;
    entry.available_memory_mb = rec->dyn.available_memory_mb;
    entry.effective_speed = rec->effective_speed;
    entry.num_cpus = rec->num_cpus;
    entry.max_allowed_load = rec->max_allowed_load;
    entry.active_jobs = 0;
    entry.updated = rec->dyn.last_update;
    meta_row_.push_back(static_cast<std::uint32_t>(cache_.size()));
    cache_.push_back(entry);

    EntryMeta meta;
    meta.name = Intern(rec->name);
    meta.user_groups = rec->user_groups;
    if (shadows_ != nullptr && !rec->shadow_pool.empty()) {
      meta.shadow_accounts = shadows_->Find(rec->shadow_pool);
    }
    if (policies_ != nullptr && !rec->usage_policy.empty()) {
      meta.policy_view = std::make_unique<db::MachineRecord>(*rec);
    }
    meta.execution_port = rec->execution_unit_port;
    any_user_groups_ |= !meta.user_groups.empty();
    any_usage_policy_ |= meta.policy_view != nullptr;
    meta_.push_back(std::move(meta));
  });
  entry_of_.assign(
      ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end()) + 1,
      kNoEntry);
  for (std::size_t i = 0; i < cache_.size(); ++i) {
    entry_of_[cache_[i].id] = static_cast<std::uint32_t>(i);
  }
  if (index_) index_->Rebuild(cache_);

  initialized_ = true;
  if (directory_ != nullptr) {
    directory::PoolInstance instance;
    instance.pool_name = config_.pool_name;
    instance.instance = config_.instance;
    instance.address = ctx.self();
    instance.machine_count = cache_.size();
    instance.segment = config_.segment;
    const Status status = directory_->RegisterPool(instance);
    if (!status.ok()) {
      ACTYP_WARN << "pool '" << config_.pool_name
                 << "' failed directory registration: " << status.ToString();
    }
  }
}

void ResourcePool::OnMessage(const net::Envelope& envelope,
                             net::NodeContext& ctx) {
  const net::Message& message = envelope.message;
  if (message.type == net::msg::kQuery) {
    HandleQuery(envelope, ctx);
    if (config_.profiler != nullptr) {
      config_.profiler->Record(profile::Stage::kPoolSelect,
                               RequestIdOf(message), envelope.sent_at,
                               ctx.Now() + ctx.Consumed());
    }
  } else if (message.type == net::msg::kRelease) {
    HandleRelease(envelope, ctx);
  } else if (message.type == net::msg::kTick) {
    HandleTick(ctx);
  } else {
    ACTYP_DEBUG << "pool '" << config_.pool_name
                << "': ignoring message type '" << message.type << "'";
  }
}

void ResourcePool::HandleQuery(const net::Envelope& envelope,
                               net::NodeContext& ctx) {
  ++stats_.queries;
  const net::Message& message = envelope.message;
  const net::Address reply_to = message.Header(net::hdr::kReplyTo);
  const std::uint64_t request_id = RequestIdOf(message);

  ctx.Consume(config_.costs.pool_fixed);

  // Facts selection needs, all read from the sched hints the entry
  // stage stamped (§6 — parsed state travels with the message): the
  // fragment coordinates and the access group.
  std::uint32_t frag_index = 0, frag_total = 1;
  ParseFragmentHeader(message, &frag_index, &frag_total);
  if (!message.HasHeader(phdr::kSchedHints)) {
    ++stats_.failures;
    if (!reply_to.empty()) {
      ctx.Send(reply_to,
               MakeFailureMessage(request_id, std::string(kNoSchedHints),
                                  frag_index, frag_total));
    }
    return;
  }
  const std::string access_group = message.Header(phdr::kAccessGroup);

  // Per-query eligibility: user group lists (Fig. 3 field 16) and usage
  // policies (field 19) applied to the pool's cached view. Most pools
  // carry no such metadata and select with no filter at all — the scan
  // must not pay an indirect call per entry for a check that always
  // passes.
  std::function<bool(std::size_t, const sched::CacheEntry&)> meta_filter;
  if ((any_user_groups_ && !access_group.empty()) || any_usage_policy_) {
    meta_filter = [this, &access_group](std::size_t i,
                                        const sched::CacheEntry& entry) {
      EntryMeta& meta = Meta(i);
      if (!access_group.empty() &&
          !db::GroupListAdmits(meta.user_groups, access_group)) {
        return false;
      }
      if (meta.policy_view != nullptr) {
        // The record's static fields under the cached dynamic view.
        db::MachineRecord& view = *meta.policy_view;
        view.dyn.load = entry.load;
        view.dyn.available_memory_mb = entry.available_memory_mb;
        view.dyn.active_jobs = entry.active_jobs;
        if (!policies_->Allows(view, access_group)) return false;
      }
      return true;
    };
  }

  sched::SelectionContext sel_ctx;
  sel_ctx.instance = config_.instance;
  sel_ctx.instance_count = config_.instance_count;
  sel_ctx.rng = &ctx.rng();
  if (meta_filter) sel_ctx.filter = &meta_filter;
  sched::Selection selection = index_ ? index_->Select(cache_, sel_ctx)
                                      : policy_->Select(cache_, sel_ctx);
  bool oversubscribed = false;
  if (!selection.found() && config_.allow_oversubscribe) {
    // Every machine is at its ceiling: time-share the least-loaded one
    // that passes access control.
    double best_load = 0.0;
    for (std::size_t i = 0; i < cache_.size(); ++i) {
      ++selection.examined;
      if (cache_[i].load >= kUnusableLoad) continue;  // machine is down
      if (meta_filter && !meta_filter(i, cache_[i])) continue;
      if (!selection.found() || cache_[i].load < best_load) {
        selection.index = i;
        best_load = cache_[i].load;
      }
    }
    oversubscribed = selection.found();
  }

  stats_.entries_examined += selection.examined;
  ctx.Consume(config_.costs.pool_per_machine *
              static_cast<SimDuration>(selection.examined));

  // The reintegrator needs the final client address on every fragment
  // result (all state travels with the messages, §6).
  auto propagate = [&message](net::Message& out) {
    if (message.HasHeader(phdr::kFinalReplyTo)) {
      out.SetHeader(phdr::kFinalReplyTo, message.Header(phdr::kFinalReplyTo));
    }
  };

  if (!selection.found()) {
    ++stats_.failures;
    if (!reply_to.empty()) {
      net::Message failure =
          MakeFailureMessage(request_id,
                             "no machine available in pool '" +
                                 config_.pool_name + "'",
                             frag_index, frag_total);
      propagate(failure);
      ctx.Send(reply_to, std::move(failure));
    }
    return;
  }
  if (oversubscribed) ++stats_.oversubscribed;

  std::string session_key = MakeSessionKey(ctx);
  const std::size_t index = selection.index;
  sched::CacheEntry& chosen = cache_[index];
  chosen.active_jobs += 1;
  chosen.load += 1.0;
  TouchIndex(index);

  const EntryMeta& meta = Meta(index);
  Allocation allocation;
  allocation.machine_name = meta.name.text();
  allocation.machine_id = chosen.id;
  allocation.port = meta.execution_port;
  allocation.session_key = session_key;
  allocation.pool_name = config_.pool_name;
  allocation.pool_address = ctx.self();
  allocation.machine_load = chosen.load;
  allocation.request_id = request_id;
  allocation.fragment_index = frag_index;
  allocation.fragment_total = frag_total;

  Session session{chosen.id, std::nullopt};
  if (auto* accounts = meta.shadow_accounts; accounts != nullptr) {
    if (auto uid = accounts->Acquire(session_key); uid.ok()) {
      allocation.shadow_uid = *uid;
      session.shadow_uid = *uid;
    }
  }
  sessions_.insert_or_assign(std::move(session_key), session);

  ++stats_.allocations;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(ctx.Now(), obs::FlightKind::kPoolClaim,
                             request_id, ctx.self(),
                             config_.pool_name + " -> " +
                                 std::string(meta.name.text()));
  }
  if (!reply_to.empty()) {
    net::Message out = MakeAllocationMessage(allocation);
    propagate(out);
    ctx.Send(reply_to, std::move(out));
  }
}

void ResourcePool::HandleRelease(const net::Envelope& envelope,
                                 net::NodeContext& ctx) {
  const std::string* session =
      envelope.message.FindHeader(net::hdr::kSessionKey);
  ctx.Consume(config_.costs.pool_fixed / 2);

  const auto it =
      session == nullptr ? sessions_.end() : sessions_.find(*session);
  if (it == sessions_.end()) {
    ACTYP_DEBUG << "pool '" << config_.pool_name
                << "': release for unknown session";
    return;
  }
  const auto [machine, shadow_uid] = it->second;
  const std::uint32_t index = entry_of_[machine];
  sched::CacheEntry& entry = cache_[index];
  entry.active_jobs = std::max(0, entry.active_jobs - 1);
  entry.load = std::max(0.0, entry.load - 1.0);
  TouchIndex(index);
  if (auto* accounts = Meta(index).shadow_accounts;
      accounts != nullptr && shadow_uid.has_value()) {
    accounts->Release(*shadow_uid, *session);
  }
  sessions_.erase(it);
  ++stats_.releases;
  if (config_.recorder != nullptr) {
    config_.recorder->Record(ctx.Now(), obs::FlightKind::kPoolRelease, 0,
                             ctx.self(), "session " + *session);
  }
}

void ResourcePool::HandleTick(net::NodeContext& ctx) {
  const std::size_t refreshed = RefreshFromDatabase();
  if (policy_->indexed()) {
    // Indexed policies never reorder the cache. The dirty-id refresh
    // already re-positioned each touched entry in O(log n), so the tick
    // costs O(changed machines); only a full sweep (legacy mode or a
    // stale cursor) pays the O(n) heapify inside RefreshFromDatabase.
    ctx.Consume(config_.costs.pool_sort_per_machine *
                static_cast<SimDuration>(refreshed));
  } else {
    Resort(ctx);
    // The refresh left the index to this O(n) rebuild over the re-sorted
    // cache, cheaper than re-positioning each refreshed entry.
    if (index_) index_->Rebuild(cache_);
  }
  ctx.ScheduleSelf(config_.resort_period, net::Message{net::msg::kTick});
}

void ResourcePool::ApplyRecord(std::size_t index,
                               const db::MachineRecord& rec) {
  if (auto& view = Meta(index).policy_view; view != nullptr) *view = rec;
  sched::CacheEntry& entry = cache_[index];
  if (!rec.IsUsable()) {
    // The machine went down or was blocked since the last sweep: make
    // it unselectable (by any policy, including the oversubscribe
    // fallback) until it comes back.
    entry.load = kUnusableLoad;
    entry.updated = rec.dyn.last_update;
    return;
  }
  // Background load from the monitor plus this pool's own allocations.
  entry.load = rec.dyn.load + static_cast<double>(entry.active_jobs);
  entry.available_memory_mb = rec.dyn.available_memory_mb;
  entry.updated = rec.dyn.last_update;
}

std::size_t ResourcePool::RefreshFromDatabase() {
  ++stats_.refresh_ticks;
  if (config_.incremental_refresh) {
    dirty_ids_.clear();
    if (const auto cursor = database_->ChangesSince(db_cursor_, &dirty_ids_)) {
      db_cursor_ = *cursor;
      // Only dirty ids that live in this pool's cache are fetched; the
      // common quiet tick touches nothing at all.
      fetch_ids_.clear();
      fetch_index_.clear();
      for (const db::MachineId id : dirty_ids_) {
        if (id >= entry_of_.size() || entry_of_[id] == kNoEntry) continue;
        fetch_ids_.push_back(id);
        fetch_index_.push_back(entry_of_[id]);
      }
      if (!fetch_ids_.empty()) {
        database_->VisitRecords(
            fetch_ids_, [this](std::size_t i, const db::MachineRecord* rec) {
              if (rec == nullptr) return;
              ApplyRecord(fetch_index_[i], *rec);
            });
        // Linear pools rebuild the whole index after the re-sort.
        if (policy_->indexed()) {
          for (const std::uint32_t index : fetch_index_) TouchIndex(index);
        }
      }
      stats_.entries_refreshed += fetch_ids_.size();
      return fetch_ids_.size();
    }
    // Cursor predates the db's retained change journal: re-anchor and
    // fall through to one full sweep.
    db_cursor_ = database_->version();
  }
  // Legacy path: one locked sweep over every cached record, no copies.
  fetch_ids_.clear();
  for (const sched::CacheEntry& entry : cache_) fetch_ids_.push_back(entry.id);
  database_->VisitRecords(
      fetch_ids_, [this](std::size_t i, const db::MachineRecord* rec) {
        if (rec != nullptr) ApplyRecord(i, *rec);
      });
  if (index_) index_->Rebuild(cache_);
  stats_.entries_refreshed += cache_.size();
  return cache_.size();
}

void ResourcePool::TouchIndex(std::size_t index) {
  if (index_) index_->Update(cache_, index);
}

void ResourcePool::Resort(net::NodeContext& ctx) {
  ctx.Consume(config_.costs.pool_sort_per_machine *
              static_cast<SimDuration>(cache_.size()));
  if (!sched::ObjectiveOrder(*policy_, cache_, &sort_order_)) return;
  // Permute through scratch arrays that keep their capacity; metadata
  // rows stay put and only their row numbers move.
  sort_cache_.resize(cache_.size());
  sort_rows_.resize(cache_.size());
  for (std::size_t rank = 0; rank < sort_order_.size(); ++rank) {
    const std::uint32_t from = sort_order_[rank].index;
    sort_cache_[rank] = cache_[from];
    sort_rows_[rank] = meta_row_[from];
    entry_of_[cache_[from].id] = static_cast<std::uint32_t>(rank);
  }
  cache_.swap(sort_cache_);
  meta_row_.swap(sort_rows_);
}

std::string ResourcePool::MakeSessionKey(net::NodeContext& ctx) {
  static const char kHex[] = "0123456789abcdef";
  std::string key;
  key.reserve(37);  // "sess-" and 32 hex digits
  key = "sess-";
  for (int i = 0; i < 4; ++i) {
    std::uint64_t word = ctx.rng().Next();
    for (int j = 0; j < 8; ++j) {
      key += kHex[word & 0xF];
      word >>= 4;
    }
  }
  return key;
}

std::string SegmentClaimName(const std::string& pool_name,
                             std::uint32_t segment) {
  return pool_name + "#" + std::to_string(segment);
}

}  // namespace actyp::pipeline
