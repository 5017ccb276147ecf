#include "crawler/crawler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <unordered_map>
#include <utility>

#include "crawler/checkpoint.h"
#include "dfs/commit.h"
#include "dfs/jsonl.h"
#include "json/reader.h"
#include "net/urls.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cfnet::crawler {

namespace {
/// Canonical phase order; RunFrom indexes into this.
constexpr std::string_view kPhaseOrder[] = {kPhaseBfs, kPhaseCrunchBase,
                                            kPhaseFacebook, kPhaseTwitter,
                                            kPhaseDone};
constexpr size_t kNumRunPhases = 4;  // all but kPhaseDone

size_t PhaseIndex(std::string_view phase) {
  for (size_t i = 0; i < std::size(kPhaseOrder); ++i) {
    if (kPhaseOrder[i] == phase) return i;
  }
  return 0;  // unknown phase in a checkpoint: restart the pipeline safely
}

/// The order the augmentation phases walk companies in once BFS is done.
void SortById(std::vector<CrawledCompany>* companies) {
  std::sort(companies->begin(), companies->end(),
            [](const CrawledCompany& a, const CrawledCompany& b) {
              return a.id < b.id;
            });
}
}  // namespace

/// Per-worker state: virtual clock, fetch counters, token rotation state and
/// snapshot writers. Workers never share mutable state during a stage.
class Crawler::Shard {
 public:
  Shard(int worker_id, dfs::MiniDfs* dfs, const CrawlConfig& config)
      : worker_id_(worker_id), dfs_(dfs), config_(config) {}

  int worker_id() const { return worker_id_; }
  int64_t& clock() { return clock_micros_; }
  int64_t clock() const { return clock_micros_; }
  FetchCounters& counters() { return counters_; }
  const FetchCounters& counters() const { return counters_; }
  TokenPool& twitter_tokens() { return twitter_tokens_; }
  std::string& facebook_token() { return facebook_token_; }

  void SetTwitterTokens(const std::vector<std::string>& tokens) {
    twitter_tokens_ = TokenPool(tokens, static_cast<size_t>(worker_id_));
  }

  /// Buffers a record for the segments `<dir>part-<worker>-<seq>.jsonl`
  /// (writer lazily opened).
  Status Snapshot(const std::string& dir, const json::Json& record) {
    if (!config_.store_snapshots) return Status::OK();
    auto it = writers_.find(dir);
    if (it == writers_.end()) {
      auto writer = std::make_unique<dfs::JsonLinesWriter>(
          dfs_, dir + "part-" + std::to_string(worker_id_) + "-");
      it = writers_.emplace(dir, std::move(writer)).first;
    }
    return it->second->Write(record);
  }

  Status FlushSnapshots() {
    for (auto& [dir, writer] : writers_) {
      CFNET_RETURN_IF_ERROR(writer->Flush());
    }
    return Status::OK();
  }

  /// Per-stage discovery buffers (merged by the coordinator).
  std::vector<uint64_t> found_companies;
  std::vector<uint64_t> found_users;

 private:
  int worker_id_;
  dfs::MiniDfs* dfs_;
  const CrawlConfig& config_;
  int64_t clock_micros_ = 0;
  FetchCounters counters_;
  TokenPool twitter_tokens_;
  std::string facebook_token_;
  std::unordered_map<std::string, std::unique_ptr<dfs::JsonLinesWriter>>
      writers_;
};

Crawler::~Crawler() = default;

Crawler::Crawler(net::SocialWeb* web, dfs::MiniDfs* dfs, CrawlConfig config)
    : web_(web), dfs_(dfs), config_(std::move(config)) {
  config_.num_workers = std::max(1, config_.num_workers);
  for (int w = 0; w < config_.num_workers; ++w) {
    shards_.push_back(std::make_unique<Shard>(w, dfs_, config_));
  }
  crunchbase_breaker_ = std::make_unique<CircuitBreaker>(config_.breaker);
  facebook_breaker_ = std::make_unique<CircuitBreaker>(config_.breaker);
  twitter_breaker_ = std::make_unique<CircuitBreaker>(config_.breaker);
  if (config_.checkpointing) {
    checkpoints_ = std::make_unique<CheckpointStore>(
        dfs_, config_.checkpoint_dir, config_.checkpoints_to_keep);
  }
}

void Crawler::RunStriped(size_t n,
                         const std::function<void(size_t, Shard&)>& fn) {
  if (n == 0) return;
  const size_t num_workers = shards_.size();
  ThreadPool pool(std::min(num_workers, n));
  std::vector<std::future<void>> futures;
  for (size_t w = 0; w < num_workers; ++w) {
    futures.push_back(pool.Submit([this, w, n, num_workers, &fn]() {
      Shard& shard = *shards_[w];
      for (size_t i = w; i < n; i += num_workers) fn(i, shard);
    }));
  }
  for (auto& f : futures) f.get();
}

FetchCounters Crawler::SumShardCounters() const {
  FetchCounters total = fetch_base_;
  for (const auto& shard : shards_) {
    total += static_cast<const Shard&>(*shard).counters();
  }
  return total;
}

int64_t Crawler::MaxShardClock() const {
  int64_t makespan = 0;
  for (const auto& shard : shards_) {
    makespan = std::max(makespan, static_cast<const Shard&>(*shard).clock());
  }
  return makespan;
}

int64_t Crawler::SumBreakerTrips() const {
  return breaker_trips_base_ + crunchbase_breaker_->trips() +
         facebook_breaker_->trips() + twitter_breaker_->trips();
}

void Crawler::MergeCounters() {
  report_.fetch = SumShardCounters();
  report_.makespan_micros = MaxShardClock();
  report_.breaker_trips = SumBreakerTrips();
}

Status Crawler::FlushAllShards() {
  for (auto& shard : shards_) {
    CFNET_RETURN_IF_ERROR(shard->FlushSnapshots());
  }
  return Status::OK();
}

Status Crawler::SetUpTokens() {
  // Twitter: register apps from several simulated machines. The per-owner
  // cap (5) is enforced by the service; requesting one too many exercises
  // the 403 path.
  Shard& shard = *shards_[0];
  for (int m = 0; m < config_.num_twitter_machines; ++m) {
    // App registration is not idempotent: an incarnation that died before
    // its first checkpoint left its owners at the app cap with the tokens
    // lost. Such a restart provisions fresh owners (generation suffix)
    // instead of failing — the operator move of registering new apps.
    for (int gen = 0; gen < 16; ++gen) {
      std::string owner = "machine-" + std::to_string(m) +
                          (gen == 0 ? "" : "-r" + std::to_string(gen));
      const size_t before = twitter_tokens_.size();
      for (int a = 0; a < config_.twitter_apps_per_machine; ++a) {
        net::ApiResponse resp = FetchWithRetry(
            &web_->twitter(),
            net::ApiRequest("apps.register", {{"owner", owner}}), nullptr,
            config_.fetch, &shard.clock(), &shard.counters());
        if (resp.status == 403) break;  // owner hit the app cap
        if (!resp.ok()) {
          return Status::Unavailable("twitter app registration failed: " +
                                     resp.body.Get("error").AsString());
        }
        twitter_tokens_.push_back(resp.body.Get("access_token").AsString());
      }
      if (twitter_tokens_.size() > before) break;  // owner yielded tokens
    }
  }
  if (twitter_tokens_.empty()) {
    return Status::FailedPrecondition("no twitter tokens registered");
  }
  report_.twitter_tokens = static_cast<int64_t>(twitter_tokens_.size());

  // Facebook: short-lived login token, exchanged for a long-lived one.
  net::ApiResponse short_tok = FetchWithRetry(
      &web_->facebook(), net::ApiRequest("oauth.token", {{"user", "crawler"}}),
      nullptr, config_.fetch, &shard.clock(), &shard.counters());
  if (!short_tok.ok()) {
    return Status::Unavailable("facebook oauth.token failed");
  }
  net::ApiResponse long_tok = FetchWithRetry(
      &web_->facebook(),
      net::ApiRequest("oauth.exchange",
                      {{"token", short_tok.body.Get("access_token").AsString()}}),
      nullptr, config_.fetch, &shard.clock(), &shard.counters());
  if (!long_tok.ok()) {
    return Status::Unavailable("facebook oauth.exchange failed");
  }
  facebook_token_ = long_tok.body.Get("access_token").AsString();

  for (auto& s : shards_) {
    s->SetTwitterTokens(twitter_tokens_);
    s->facebook_token() = facebook_token_;
  }
  return Status::OK();
}

// --- checkpointing ----------------------------------------------------------

Status Crawler::SaveCheckpoint(std::string_view phase, size_t cursor,
                               const std::set<std::string>& retired) {
  if (checkpoints_ == nullptr) return Status::OK();
  // Flush first so every record written so far sits in a committed segment:
  // the segments listed below are exactly the records this state covers.
  CFNET_RETURN_IF_ERROR(FlushAllShards());

  CheckpointStep st;
  st.phase = std::string(phase);
  st.phase_cursor = static_cast<int64_t>(cursor);
  st.bfs_round = bfs_round_;
  st.company_frontier = company_frontier_;
  st.user_frontier = user_frontier_;
  st.twitter_tokens = twitter_tokens_;
  st.facebook_token = facebook_token_;
  for (const auto& shard : shards_) {
    st.worker_clocks.push_back(static_cast<const Shard&>(*shard).clock());
  }
  st.report = report_;
  st.report.fetch = SumShardCounters();
  st.report.makespan_micros = MaxShardClock();
  st.report.breaker_trips = SumBreakerTrips();
  st.report.checkpoint_writes = report_.checkpoint_writes + 1;
  // Only what changed goes in: the ids and companies BFS added since the
  // last checkpoint; the store diffs the segment list against its own.
  st.seen_companies = std::exchange(unsaved_seen_companies_, {});
  st.seen_users = std::exchange(unsaved_seen_users_, {});
  st.companies = std::exchange(unsaved_companies_, {});
  std::vector<std::string> segments =
      dfs::ListSegments(*dfs_, config_.snapshot_dir);
  std::erase_if(segments, [&](const std::string& path) {
    return retired.count(path) > 0;
  });

  CFNET_RETURN_IF_ERROR(checkpoints_->Save(&st, segments));
  ++report_.checkpoint_writes;
  report_.checkpoint_bytes = st.report.checkpoint_bytes;
  return Status::OK();
}

Status Crawler::RestoreFromCheckpoint(const CheckpointStep& st) {
  seen_companies_.clear();
  seen_companies_.insert(st.seen_companies.begin(), st.seen_companies.end());
  seen_users_.clear();
  seen_users_.insert(st.seen_users.begin(), st.seen_users.end());
  companies_ = st.companies;
  // Steps carry companies in discovery order; past BFS the uninterrupted
  // run had sorted them, and the augmentation cursors index that order.
  if (st.phase != kPhaseBfs) SortById(&companies_);
  company_frontier_ = st.company_frontier;
  user_frontier_ = st.user_frontier;
  bfs_round_ = st.bfs_round;
  bfs_seeded_ = true;
  twitter_tokens_ = st.twitter_tokens;
  facebook_token_ = st.facebook_token;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    if (!twitter_tokens_.empty()) shard.SetTwitterTokens(twitter_tokens_);
    shard.facebook_token() = facebook_token_;
    // A resumed crawl with a different worker count continues everyone from
    // the crawl's frontier time instead of replaying per-worker clocks.
    if (st.worker_clocks.size() == shards_.size()) {
      shard.clock() = st.worker_clocks[i];
    } else if (!st.worker_clocks.empty()) {
      shard.clock() =
          *std::max_element(st.worker_clocks.begin(), st.worker_clocks.end());
    }
  }
  report_ = st.report;
  report_.wall_seconds = 0;
  fetch_base_ = st.report.fetch;
  breaker_trips_base_ = st.report.breaker_trips;
  // Exactly-once snapshot records: the segments the checkpoint lists hold
  // exactly the records its state covers, so everything else goes.
  CFNET_RETURN_IF_ERROR(DropSnapshotsOutside(st.snapshot_segments));
  // The next step chains from this checkpoint.
  unsaved_seen_companies_.clear();
  unsaved_seen_users_.clear();
  unsaved_companies_.clear();
  ++report_.checkpoint_restores;
  return Status::OK();
}

Status Crawler::DropSnapshotsOutside(const std::vector<std::string>& keep) {
  const std::set<std::string> kept(keep.begin(), keep.end());
  for (const std::string& path : dfs_->List(config_.snapshot_dir)) {
    if (StartsWith(path, checkpoints_->dir()) || kept.count(path) > 0) {
      continue;
    }
    CFNET_RETURN_IF_ERROR(dfs_->Delete(path));
  }
  return Status::OK();
}

// --- pipeline drivers -------------------------------------------------------

Status Crawler::Run() {
  CFNET_RETURN_IF_ERROR(SetUpTokens());
  return RunFrom(0, 0);
}

Status Crawler::Resume() {
  if (checkpoints_ == nullptr) return Run();
  // Repair the snapshot tree before trusting it: GC temp files the dying
  // incarnation orphaned mid-commit and quarantine damaged files. (The
  // checkpoint dir was already swept when the store was constructed.)
  dfs::RecoveryReport swept = dfs::SweepDir(dfs_, config_.snapshot_dir);
  auto loaded = checkpoints_->LoadLatestValid();
  if (!loaded.ok()) {
    // The previous incarnation died before its first checkpoint, so no
    // snapshot segment it left is covered by durable state. Run() re-crawls
    // from scratch; keeping them would duplicate every record they hold.
    CFNET_RETURN_IF_ERROR(DropSnapshotsOutside({}));
    report_.storage_temps_removed += swept.temp_files_removed;
    report_.storage_quarantined += swept.files_quarantined;
    return Run();
  }
  CheckpointStep st = std::move(loaded).value();
  CFNET_RETURN_IF_ERROR(RestoreFromCheckpoint(st));
  // After the restore: RestoreFromCheckpoint replaces report_ with the
  // checkpointed one, and this incarnation's sweep happened on top of that.
  report_.storage_temps_removed += swept.temp_files_removed;
  report_.storage_quarantined += swept.files_quarantined;
  return RunFrom(PhaseIndex(st.phase), static_cast<size_t>(st.phase_cursor));
}

Status Crawler::AfterPhase(std::string_view completed, std::string_view next) {
  CFNET_RETURN_IF_ERROR(SaveCheckpoint(next, 0));
  if (!config_.crash_after_phase.empty() &&
      config_.crash_after_phase == completed) {
    return Status::Aborted("simulated crash after phase " +
                           std::string(completed));
  }
  return Status::OK();
}

Status Crawler::RunFrom(size_t phase_idx, size_t cursor) {
  auto start = std::chrono::steady_clock::now();
  for (size_t idx = phase_idx; idx < kNumRunPhases; ++idx) {
    std::string_view phase = kPhaseOrder[idx];
    if (phase == kPhaseBfs) {
      CFNET_RETURN_IF_ERROR(RunAngelListBfs());
    } else {
      CFNET_RETURN_IF_ERROR(RunPhase(phase, cursor));
    }
    cursor = 0;
    CFNET_RETURN_IF_ERROR(AfterPhase(phase, kPhaseOrder[idx + 1]));
  }
  CFNET_RETURN_IF_ERROR(FlushAllShards());
  if (config_.post_flush_hook) {
    CFNET_RETURN_IF_ERROR(config_.post_flush_hook());
  }
  MergeCounters();
  report_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return Status::OK();
}

Status Crawler::RunAngelListBfs() {
  net::AngelListService* al = &web_->angellist();

  // Seed: every page of the "currently raising" listing (skipped when a
  // checkpoint already restored a live frontier).
  if (!bfs_seeded_) {
    bfs_seeded_ = true;
    Shard& shard = *shards_[0];
    net::ApiResponse resp = FetchAllPages(
        al,
        [](int64_t page) {
          return net::ApiRequest("startups.raising",
                                 {{"page", std::to_string(page)}});
        },
        nullptr, config_.fetch, &shard.clock(), &shard.counters(),
        [&](const json::Json& body) {
          for (const json::Json& s : body.Get("startups").array()) {
            uint64_t id = static_cast<uint64_t>(s.Get("id").AsInt());
            if (seen_companies_.insert(id).second) {
              company_frontier_.push_back(id);
            }
          }
        });
    if (!resp.ok()) {
      return Status::Unavailable("raising listing failed: " +
                                 resp.body.Get("error").AsString());
    }
    if (checkpoints_ != nullptr) unsaved_seen_companies_ = company_frontier_;
  }

  std::mutex companies_mu;

  while (!company_frontier_.empty() || !user_frontier_.empty()) {
    if (config_.max_bfs_rounds > 0 && bfs_round_ >= config_.max_bfs_rounds) {
      break;
    }
    ++bfs_round_;
    const size_t round_begin = companies_.size();

    // --- Stage A: fetch company profiles + their followers. -------------
    RunStriped(company_frontier_.size(), [&](size_t i, Shard& shard) {
      uint64_t cid = company_frontier_[i];
      net::ApiResponse profile = FetchWithRetry(
          al,
          net::ApiRequest("startups.get", {{"id", std::to_string(cid)}}),
          nullptr, config_.fetch, &shard.clock(), &shard.counters());
      if (!profile.ok()) return;  // counted via counters.failures on 503s

      CrawledCompany cc;
      cc.id = cid;
      cc.name = profile.body.Get("name").AsString();
      cc.twitter_url = profile.body.Get("twitter_url").AsString();
      cc.facebook_url = profile.body.Get("facebook_url").AsString();
      cc.crunchbase_url = profile.body.Get("crunchbase_url").AsString();
      {
        std::lock_guard<std::mutex> lock(companies_mu);
        companies_.push_back(std::move(cc));
      }
      shard.Snapshot(StartupSnapshotDir(), profile.body).ok();

      FetchAllPages(
          al,
          [cid](int64_t page) {
            return net::ApiRequest("startups.followers",
                                   {{"id", std::to_string(cid)},
                                    {"page", std::to_string(page)}});
          },
          nullptr, config_.fetch, &shard.clock(), &shard.counters(),
          [&](const json::Json& body) {
            for (const json::Json& f : body.Get("follower_ids").array()) {
              shard.found_users.push_back(static_cast<uint64_t>(f.AsInt()));
            }
          });
    });

    // --- Stage B: fetch user profiles + everything they follow. ----------
    RunStriped(user_frontier_.size(), [&](size_t i, Shard& shard) {
      uint64_t uid = user_frontier_[i];
      net::ApiResponse profile = FetchWithRetry(
          al, net::ApiRequest("users.get", {{"id", std::to_string(uid)}}),
          nullptr, config_.fetch, &shard.clock(), &shard.counters());
      if (!profile.ok()) return;

      int64_t following_startups = 0;
      int64_t following_users = 0;
      FetchAllPages(
          al,
          [uid](int64_t page) {
            return net::ApiRequest("users.following.startups",
                                   {{"id", std::to_string(uid)},
                                    {"page", std::to_string(page)}});
          },
          nullptr, config_.fetch, &shard.clock(), &shard.counters(),
          [&](const json::Json& body) {
            following_startups = body.Get("total").AsInt();
            for (const json::Json& s : body.Get("startup_ids").array()) {
              shard.found_companies.push_back(static_cast<uint64_t>(s.AsInt()));
            }
          });
      FetchAllPages(
          al,
          [uid](int64_t page) {
            return net::ApiRequest("users.following.users",
                                   {{"id", std::to_string(uid)},
                                    {"page", std::to_string(page)}});
          },
          nullptr, config_.fetch, &shard.clock(), &shard.counters(),
          [&](const json::Json& body) {
            following_users = body.Get("total").AsInt();
            for (const json::Json& u : body.Get("user_ids").array()) {
              shard.found_users.push_back(static_cast<uint64_t>(u.AsInt()));
            }
          });

      json::Json record = profile.body;
      record.Set("following_startup_count", following_startups);
      record.Set("following_user_count", following_users);
      shard.Snapshot(UserSnapshotDir(), record).ok();
    });

    // --- Merge discoveries into the next frontiers. ----------------------
    company_frontier_.clear();
    user_frontier_.clear();
    for (auto& shard : shards_) {
      for (uint64_t cid : shard->found_companies) {
        if (seen_companies_.insert(cid).second) {
          company_frontier_.push_back(cid);
        }
      }
      for (uint64_t uid : shard->found_users) {
        if (seen_users_.insert(uid).second) user_frontier_.push_back(uid);
      }
      shard->found_companies.clear();
      shard->found_users.clear();
    }
    // Deterministic processing order regardless of worker interleaving.
    std::sort(company_frontier_.begin(), company_frontier_.end());
    std::sort(user_frontier_.begin(), user_frontier_.end());
    if (checkpoints_ != nullptr) {
      // The new frontiers are exactly the ids this round saw first. The
      // round's companies are copied out now: the sort below reorders
      // companies_ once BFS ends, so no index could find them after it.
      unsaved_seen_companies_.insert(unsaved_seen_companies_.end(),
                                     company_frontier_.begin(),
                                     company_frontier_.end());
      unsaved_seen_users_.insert(unsaved_seen_users_.end(),
                                 user_frontier_.begin(), user_frontier_.end());
      unsaved_companies_.insert(unsaved_companies_.end(),
                                companies_.begin() + round_begin,
                                companies_.end());
    }

    if (config_.checkpoint_every_rounds > 0 &&
        bfs_round_ % config_.checkpoint_every_rounds == 0) {
      CFNET_RETURN_IF_ERROR(SaveCheckpoint(kPhaseBfs, 0));
    }
    if (config_.crash_after_bfs_rounds > 0 &&
        bfs_round_ >= config_.crash_after_bfs_rounds) {
      return Status::Aborted("simulated crash after BFS round " +
                             std::to_string(bfs_round_));
    }
  }

  report_.bfs_rounds = bfs_round_;
  report_.companies_crawled = static_cast<int64_t>(companies_.size());
  report_.users_crawled = static_cast<int64_t>(seen_users_.size());
  // Stable order for the augmentation phases.
  SortById(&companies_);
  return Status::OK();
}

// --- augmentation phases ----------------------------------------------------

CircuitBreaker* Crawler::BreakerFor(std::string_view phase) {
  if (phase == kPhaseCrunchBase) return crunchbase_breaker_.get();
  if (phase == kPhaseFacebook) return facebook_breaker_.get();
  if (phase == kPhaseTwitter) return twitter_breaker_.get();
  return nullptr;
}

Crawler::ProcessFn Crawler::ProcessFor(std::string_view phase) const {
  if (phase == kPhaseCrunchBase) return &Crawler::ProcessCrunchBase;
  if (phase == kPhaseFacebook) return &Crawler::ProcessFacebook;
  if (phase == kPhaseTwitter) return &Crawler::ProcessTwitter;
  return nullptr;
}

Status Crawler::DeadLetter(Shard& shard, std::string_view phase, uint64_t id,
                           std::string_view reason) {
  json::Json record = json::Json::MakeObject();
  record.Set("id", static_cast<int64_t>(id));
  record.Set("phase", phase);
  record.Set("reason", reason);
  return shard.Snapshot(DeadLetterDir(phase), record);
}

Status Crawler::RunPhase(std::string_view phase, size_t start_cursor) {
  CircuitBreaker* breaker = BreakerFor(phase);
  ProcessFn process = ProcessFor(phase);
  if (breaker == nullptr || process == nullptr) {
    return Status::InvalidArgument("unknown phase: " + std::string(phase));
  }
  const size_t n = companies_.size();
  const size_t chunk =
      config_.checkpoint_chunk > 0 ? static_cast<size_t>(config_.checkpoint_chunk) : n;
  const int64_t trips_before = breaker->trips();
  std::atomic<int64_t> dead{0};

  size_t cursor = std::min(start_cursor, n);
  while (cursor < n) {
    const size_t end = std::min(n, cursor + std::max<size_t>(1, chunk));
    RunStriped(end - cursor, [&](size_t i, Shard& shard) {
      const CrawledCompany& cc = companies_[cursor + i];
      // Degraded: the source burned through its breaker budget — stop
      // hammering it and queue the remainder for later replay.
      if (breaker->trips() - trips_before > kBreakerTripBudget) {
        DeadLetter(shard, phase, cc.id, "degraded").ok();
        dead.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if ((this->*process)(cc, shard) == ItemOutcome::kFailed) {
        DeadLetter(shard, phase, cc.id, "failed").ok();
        dead.fetch_add(1, std::memory_order_relaxed);
      }
    });
    cursor = end;
    if (cursor < n) {
      CFNET_RETURN_IF_ERROR(SaveCheckpoint(phase, cursor));
    }
  }

  const int64_t trips = breaker->trips() - trips_before;
  report_.dead_lettered_ids += dead.load();
  if (trips > kBreakerTripBudget) {
    report_.degraded_phases.push_back(
        {std::string(phase), trips, dead.load(),
         "circuit breaker trip budget exceeded"});
  }
  return Status::OK();
}

Crawler::ItemOutcome Crawler::ProcessCrunchBase(const CrawledCompany& cc,
                                                Shard& shard) {
  net::CrunchBaseService* cb = &web_->crunchbase();
  std::string permalink;
  bool via_url = false;
  if (!cc.crunchbase_url.empty()) {
    permalink = std::string(LastUrlSegment(cc.crunchbase_url));
    via_url = true;
  } else {
    // Name search; only a unique hit may be associated (§3).
    net::ApiResponse search = FetchWithRetry(
        cb, net::ApiRequest("organizations.search", {{"name", cc.name}}),
        nullptr, config_.fetch, &shard.clock(), &shard.counters(),
        crunchbase_breaker_.get());
    if (!search.ok()) return ItemOutcome::kFailed;
    const auto& results = search.body.Get("results").array();
    if (results.empty()) {
      std::lock_guard<std::mutex> lock(report_mu_);
      ++report_.crunchbase_misses;
      return ItemOutcome::kSkipped;
    }
    if (results.size() > 1) {
      std::lock_guard<std::mutex> lock(report_mu_);
      ++report_.crunchbase_ambiguous_skipped;
      return ItemOutcome::kSkipped;
    }
    permalink = results[0].Get("permalink").AsString();
  }
  net::ApiResponse org = FetchWithRetry(
      cb, net::ApiRequest("organizations.get", {{"permalink", permalink}}),
      nullptr, config_.fetch, &shard.clock(), &shard.counters(),
      crunchbase_breaker_.get());
  if (org.status == 404) {
    std::lock_guard<std::mutex> lock(report_mu_);
    ++report_.crunchbase_misses;
    return ItemOutcome::kSkipped;
  }
  if (!org.ok()) return ItemOutcome::kFailed;
  // CrunchBase links back to AngelList for every dual-listed company
  // (§2); a name-search hit whose backlink points at a different startup
  // is a false match (shared names) and must be dropped.
  const std::string& backlink = org.body.Get("angellist_url").AsString();
  if (!backlink.empty() && backlink != net::AngelListCompanyUrl(cc.id)) {
    std::lock_guard<std::mutex> lock(report_mu_);
    ++report_.crunchbase_backlink_mismatches;
    return ItemOutcome::kSkipped;
  }
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    ++(via_url ? report_.crunchbase_matched_by_url
               : report_.crunchbase_matched_by_search);
    ++report_.crunchbase_profiles;
  }
  json::Json record = org.body;
  record.Set("angellist_id", static_cast<int64_t>(cc.id));
  shard.Snapshot(CrunchBaseSnapshotDir(), record).ok();
  return ItemOutcome::kOk;
}

Crawler::ItemOutcome Crawler::ProcessFacebook(const CrawledCompany& cc,
                                              Shard& shard) {
  if (cc.facebook_url.empty()) return ItemOutcome::kSkipped;
  std::string page_id(LastUrlSegment(cc.facebook_url));
  net::ApiRequest req("page.get", {{"page_id", page_id}});
  req.access_token = shard.facebook_token();
  net::ApiResponse resp = FetchWithRetry(
      &web_->facebook(), std::move(req), nullptr, config_.fetch,
      &shard.clock(), &shard.counters(), facebook_breaker_.get());
  if (resp.status == 404) return ItemOutcome::kSkipped;
  if (!resp.ok()) return ItemOutcome::kFailed;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    ++report_.facebook_profiles;
  }
  json::Json record = resp.body;
  record.Set("angellist_id", static_cast<int64_t>(cc.id));
  shard.Snapshot(FacebookSnapshotDir(), record).ok();
  return ItemOutcome::kOk;
}

Crawler::ItemOutcome Crawler::ProcessTwitter(const CrawledCompany& cc,
                                             Shard& shard) {
  if (cc.twitter_url.empty()) return ItemOutcome::kSkipped;
  std::string screen_name(LastUrlSegment(cc.twitter_url));
  net::ApiResponse resp = FetchWithRetry(
      &web_->twitter(),
      net::ApiRequest("users.show", {{"screen_name", screen_name}}),
      &shard.twitter_tokens(), config_.fetch, &shard.clock(),
      &shard.counters(), twitter_breaker_.get());
  if (resp.status == 404) return ItemOutcome::kSkipped;
  if (!resp.ok()) return ItemOutcome::kFailed;
  {
    std::lock_guard<std::mutex> lock(report_mu_);
    ++report_.twitter_profiles;
  }
  json::Json record = resp.body;
  record.Set("angellist_id", static_cast<int64_t>(cc.id));
  shard.Snapshot(TwitterSnapshotDir(), record).ok();
  return ItemOutcome::kOk;
}

Status Crawler::RunCrunchBaseAugmentation() {
  return RunPhase(kPhaseCrunchBase, 0);
}

Status Crawler::RunFacebookCrawl() { return RunPhase(kPhaseFacebook, 0); }

Status Crawler::RunTwitterCrawl() { return RunPhase(kPhaseTwitter, 0); }

// --- dead-letter replay -----------------------------------------------------

Status Crawler::ReplayDeadLetters() {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < companies_.size(); ++i) {
    index.emplace(companies_[i].id, i);
  }
  // Consumed log segments stay until the checkpoint that records the
  // replay's output (and no longer lists them) commits: a crash before then
  // resumes from a checkpoint that still lists them and drops the partial
  // output; a crash after finds them unlisted and Resume() drops them.
  std::set<std::string> consumed;
  for (std::string_view phase :
       {kPhaseCrunchBase, kPhaseFacebook, kPhaseTwitter}) {
    const std::string dir = DeadLetterDir(phase);
    std::vector<std::string> files = dfs::ListSegments(*dfs_, dir);
    if (files.empty()) continue;
    std::set<uint64_t> ids;  // dedup + deterministic replay order
    // Streaming id extraction: dead-letter lines carry several fields, but
    // only "id" matters here — no DOM per line.
    auto decode_id = [](std::string_view line) -> Result<uint64_t> {
      json::JsonReader reader(line);
      uint64_t id = 0;
      CFNET_RETURN_IF_ERROR(
          reader.ForEachMember([&](std::string_view key) -> Status {
            if (key != "id") return reader.SkipValue();
            CFNET_ASSIGN_OR_RETURN(json::JsonReader::Scalar v,
                                   reader.ReadScalar());
            id = static_cast<uint64_t>(v.AsInt());
            return Status::OK();
          }));
      CFNET_RETURN_IF_ERROR(reader.Finish());
      return id;
    };
    CFNET_ASSIGN_OR_RETURN(auto id_parts,
                           dfs::ScanJsonLines<uint64_t>(*dfs_, files, decode_id));
    for (const auto& part : id_parts) ids.insert(part.begin(), part.end());
    consumed.insert(files.begin(), files.end());
    std::vector<size_t> targets;
    for (uint64_t id : ids) {
      auto it = index.find(id);
      if (it != index.end()) targets.push_back(it->second);
    }
    // The incident this log accumulated under is presumed over.
    BreakerFor(phase)->Reset();
    ProcessFn process = ProcessFor(phase);
    std::atomic<int64_t> replayed{0};
    std::atomic<int64_t> re_dead{0};
    RunStriped(targets.size(), [&](size_t i, Shard& shard) {
      const CrawledCompany& cc = companies_[targets[i]];
      if ((this->*process)(cc, shard) == ItemOutcome::kFailed) {
        DeadLetter(shard, phase, cc.id, "replay-failed").ok();
        re_dead.fetch_add(1, std::memory_order_relaxed);
      } else {
        replayed.fetch_add(1, std::memory_order_relaxed);
      }
    });
    report_.dead_letters_replayed += replayed.load();
    report_.dead_lettered_ids += re_dead.load();
  }
  CFNET_RETURN_IF_ERROR(FlushAllShards());
  CFNET_RETURN_IF_ERROR(SaveCheckpoint(kPhaseDone, 0, consumed));
  for (const std::string& path : consumed) {
    CFNET_RETURN_IF_ERROR(dfs_->Delete(path));
  }
  if (config_.post_flush_hook) {
    // Replays add segments to snapshot dirs, so any columnar compaction of
    // them is stale now — re-run the hook to refresh it.
    CFNET_RETURN_IF_ERROR(config_.post_flush_hook());
  }
  MergeCounters();
  return Status::OK();
}

}  // namespace cfnet::crawler
