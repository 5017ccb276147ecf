#include "crawler/checkpoint.h"

#include <algorithm>
#include <cstdlib>

#include "dfs/commit.h"
#include "json/json.h"
#include "util/string_util.h"

namespace cfnet::crawler {
namespace {

json::Json IdsToJson(const std::vector<uint64_t>& ids) {
  json::Json a = json::Json::MakeArray();
  for (uint64_t id : ids) a.Append(static_cast<int64_t>(id));
  return a;
}

std::vector<uint64_t> IdsFromJson(const json::Json& a) {
  std::vector<uint64_t> out;
  out.reserve(a.size());
  for (const json::Json& v : a.array()) {
    out.push_back(static_cast<uint64_t>(v.AsInt()));
  }
  return out;
}

json::Json ClocksToJson(const std::vector<int64_t>& clocks) {
  json::Json a = json::Json::MakeArray();
  for (int64_t c : clocks) a.Append(c);
  return a;
}

json::Json FetchToJson(const FetchCounters& f) {
  json::Json o = json::Json::MakeObject();
  o.Set("requests", f.requests);
  o.Set("retries", f.retries);
  o.Set("rate_limit_waits", f.rate_limit_waits);
  o.Set("token_rotations", f.token_rotations);
  o.Set("failures", f.failures);
  o.Set("malformed_retries", f.malformed_retries);
  o.Set("breaker_fast_fails", f.breaker_fast_fails);
  return o;
}

FetchCounters FetchFromJson(const json::Json& o) {
  FetchCounters f;
  f.requests = o.Get("requests").AsInt();
  f.retries = o.Get("retries").AsInt();
  f.rate_limit_waits = o.Get("rate_limit_waits").AsInt();
  f.token_rotations = o.Get("token_rotations").AsInt();
  f.failures = o.Get("failures").AsInt();
  f.malformed_retries = o.Get("malformed_retries").AsInt();
  f.breaker_fast_fails = o.Get("breaker_fast_fails").AsInt();
  return f;
}

json::Json ReportToJson(const CrawlReport& r) {
  json::Json o = json::Json::MakeObject();
  o.Set("companies_crawled", r.companies_crawled);
  o.Set("users_crawled", r.users_crawled);
  o.Set("bfs_rounds", r.bfs_rounds);
  o.Set("crunchbase_profiles", r.crunchbase_profiles);
  o.Set("crunchbase_matched_by_url", r.crunchbase_matched_by_url);
  o.Set("crunchbase_matched_by_search", r.crunchbase_matched_by_search);
  o.Set("crunchbase_ambiguous_skipped", r.crunchbase_ambiguous_skipped);
  o.Set("crunchbase_backlink_mismatches", r.crunchbase_backlink_mismatches);
  o.Set("crunchbase_misses", r.crunchbase_misses);
  o.Set("facebook_profiles", r.facebook_profiles);
  o.Set("twitter_profiles", r.twitter_profiles);
  o.Set("twitter_tokens", r.twitter_tokens);
  o.Set("fetch", FetchToJson(r.fetch));
  o.Set("makespan_micros", r.makespan_micros);
  o.Set("breaker_trips", r.breaker_trips);
  o.Set("checkpoint_writes", r.checkpoint_writes);
  o.Set("checkpoint_restores", r.checkpoint_restores);
  o.Set("dead_lettered_ids", r.dead_lettered_ids);
  o.Set("dead_letters_replayed", r.dead_letters_replayed);
  o.Set("storage_temps_removed", r.storage_temps_removed);
  o.Set("storage_quarantined", r.storage_quarantined);
  json::Json degraded = json::Json::MakeArray();
  for (const DegradedReport& d : r.degraded_phases) {
    json::Json e = json::Json::MakeObject();
    e.Set("phase", d.phase);
    e.Set("breaker_trips", d.breaker_trips);
    e.Set("dead_lettered", d.dead_lettered);
    e.Set("reason", d.reason);
    degraded.Append(std::move(e));
  }
  o.Set("degraded_phases", std::move(degraded));
  return o;
}

CrawlReport ReportFromJson(const json::Json& o) {
  CrawlReport r;
  r.companies_crawled = o.Get("companies_crawled").AsInt();
  r.users_crawled = o.Get("users_crawled").AsInt();
  r.bfs_rounds = o.Get("bfs_rounds").AsInt();
  r.crunchbase_profiles = o.Get("crunchbase_profiles").AsInt();
  r.crunchbase_matched_by_url = o.Get("crunchbase_matched_by_url").AsInt();
  r.crunchbase_matched_by_search = o.Get("crunchbase_matched_by_search").AsInt();
  r.crunchbase_ambiguous_skipped = o.Get("crunchbase_ambiguous_skipped").AsInt();
  r.crunchbase_backlink_mismatches =
      o.Get("crunchbase_backlink_mismatches").AsInt();
  r.crunchbase_misses = o.Get("crunchbase_misses").AsInt();
  r.facebook_profiles = o.Get("facebook_profiles").AsInt();
  r.twitter_profiles = o.Get("twitter_profiles").AsInt();
  r.twitter_tokens = o.Get("twitter_tokens").AsInt();
  r.fetch = FetchFromJson(o.Get("fetch"));
  r.makespan_micros = o.Get("makespan_micros").AsInt();
  r.breaker_trips = o.Get("breaker_trips").AsInt();
  r.checkpoint_writes = o.Get("checkpoint_writes").AsInt();
  r.checkpoint_restores = o.Get("checkpoint_restores").AsInt();
  r.dead_lettered_ids = o.Get("dead_lettered_ids").AsInt();
  r.dead_letters_replayed = o.Get("dead_letters_replayed").AsInt();
  r.storage_temps_removed = o.Get("storage_temps_removed").AsInt();
  r.storage_quarantined = o.Get("storage_quarantined").AsInt();
  for (const json::Json& e : o.Get("degraded_phases").array()) {
    DegradedReport d;
    d.phase = e.Get("phase").AsString();
    d.breaker_trips = e.Get("breaker_trips").AsInt();
    d.dead_lettered = e.Get("dead_lettered").AsInt();
    d.reason = e.Get("reason").AsString();
    r.degraded_phases.push_back(std::move(d));
  }
  return r;
}

json::Json CompanyToJson(const CrawledCompany& c) {
  json::Json o = json::Json::MakeObject();
  o.Set("id", static_cast<int64_t>(c.id));
  o.Set("name", c.name);
  o.Set("twitter_url", c.twitter_url);
  o.Set("facebook_url", c.facebook_url);
  o.Set("crunchbase_url", c.crunchbase_url);
  return o;
}

CrawledCompany CompanyFromJson(const json::Json& o) {
  CrawledCompany c;
  c.id = static_cast<uint64_t>(o.Get("id").AsInt());
  c.name = o.Get("name").AsString();
  c.twitter_url = o.Get("twitter_url").AsString();
  c.facebook_url = o.Get("facebook_url").AsString();
  c.crunchbase_url = o.Get("crunchbase_url").AsString();
  return c;
}

std::string FileName(int64_t seq) {
  return StrFormat("ckpt-%010lld", static_cast<long long>(seq));
}

}  // namespace

std::string CheckpointStore::Serialize(const CheckpointState& st) {
  json::Json root = json::Json::MakeObject();
  root.Set("version", 2);
  root.Set("seq", st.seq);
  root.Set("phase", st.phase);
  root.Set("phase_cursor", st.phase_cursor);
  root.Set("bfs_round", st.bfs_round);
  root.Set("company_frontier", IdsToJson(st.company_frontier));
  root.Set("user_frontier", IdsToJson(st.user_frontier));
  root.Set("seen_companies", IdsToJson(st.seen_companies));
  root.Set("seen_users", IdsToJson(st.seen_users));
  json::Json companies = json::Json::MakeArray();
  for (const CrawledCompany& c : st.companies) {
    companies.Append(CompanyToJson(c));
  }
  root.Set("companies", std::move(companies));
  json::Json tokens = json::Json::MakeArray();
  for (const std::string& t : st.twitter_tokens) tokens.Append(t);
  root.Set("twitter_tokens", std::move(tokens));
  root.Set("facebook_token", st.facebook_token);
  root.Set("worker_clocks", ClocksToJson(st.worker_clocks));
  json::Json segments = json::Json::MakeArray();
  for (const std::string& path : st.snapshot_segments) segments.Append(path);
  root.Set("snapshot_segments", std::move(segments));
  root.Set("report", ReportToJson(st.report));
  return root.Dump();
}

Result<CheckpointState> CheckpointStore::Deserialize(std::string_view payload) {
  auto parsed = json::Parse(payload);
  if (!parsed.ok()) {
    return Status::Corruption("checkpoint: " + parsed.status().message());
  }
  const json::Json& root = *parsed;
  if (root.Get("version").AsInt() != 2) {
    return Status::Corruption("checkpoint: unsupported version");
  }
  CheckpointState st;
  st.seq = root.Get("seq").AsInt();
  st.phase = root.Get("phase").AsString();
  st.phase_cursor = root.Get("phase_cursor").AsInt();
  st.bfs_round = root.Get("bfs_round").AsInt();
  st.company_frontier = IdsFromJson(root.Get("company_frontier"));
  st.user_frontier = IdsFromJson(root.Get("user_frontier"));
  st.seen_companies = IdsFromJson(root.Get("seen_companies"));
  st.seen_users = IdsFromJson(root.Get("seen_users"));
  for (const json::Json& c : root.Get("companies").array()) {
    st.companies.push_back(CompanyFromJson(c));
  }
  for (const json::Json& t : root.Get("twitter_tokens").array()) {
    st.twitter_tokens.push_back(t.AsString());
  }
  st.facebook_token = root.Get("facebook_token").AsString();
  for (const json::Json& c : root.Get("worker_clocks").array()) {
    st.worker_clocks.push_back(c.AsInt());
  }
  for (const json::Json& path : root.Get("snapshot_segments").array()) {
    st.snapshot_segments.push_back(path.AsString());
  }
  st.report = ReportFromJson(root.Get("report"));
  return st;
}

CheckpointStore::CheckpointStore(dfs::MiniDfs* dfs, std::string dir, int keep)
    : dfs_(dfs), dir_(std::move(dir)), keep_(std::max(1, keep)) {
  if (dir_.empty() || dir_.back() != '/') dir_ += '/';
  // A previous incarnation may have died mid-commit: GC its orphaned temp
  // file and quarantine anything with a broken footer before trusting the
  // directory listing.
  dfs::SweepDir(dfs_, dir_);
  // Continue the sequence of any checkpoints already on disk (a resumed
  // crawler keeps checkpointing into the same directory).
  for (const std::string& path : ListFiles()) {
    std::string_view name(path);
    name.remove_prefix(dir_.size() + 5);  // "ckpt-"
    int64_t seq = std::strtoll(std::string(name).c_str(), nullptr, 10);
    next_seq_ = std::max(next_seq_, seq + 1);
  }
}

std::vector<std::string> CheckpointStore::ListFiles() const {
  std::vector<std::string> out;
  for (const std::string& path : dfs_->List(dir_)) {
    if (StartsWith(path, dir_ + "ckpt-") && !dfs::IsTempPath(path)) {
      out.push_back(path);
    }
  }
  return out;  // List() is sorted; zero-padded names sort by sequence
}

Status CheckpointStore::Save(CheckpointState* state) {
  state->seq = next_seq_++;
  // Atomic commit: a crash anywhere in here leaves either the previous
  // checkpoint set or the previous set plus a fully verified new file —
  // never a half-written ckpt that LoadLatestValid must CRC-reject.
  CFNET_RETURN_IF_ERROR(
      dfs::CommitFile(dfs_, dir_ + FileName(state->seq), Serialize(*state)));
  std::vector<std::string> files = ListFiles();
  for (size_t i = 0; i + keep_ < files.size(); ++i) {
    CFNET_RETURN_IF_ERROR(dfs_->Delete(files[i]));
  }
  return Status::OK();
}

Result<CheckpointState> CheckpointStore::LoadLatestValid() const {
  std::vector<std::string> files = ListFiles();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    // Damage or lost replicas disqualify the file: fall back to the
    // previous checkpoint.
    auto payload = dfs::ReadCommitted(*dfs_, *it);
    if (!payload.ok()) continue;
    auto state = Deserialize(*payload);
    if (state.ok()) return state;
  }
  return Status::NotFound("no valid checkpoint under " + dir_);
}

}  // namespace cfnet::crawler
