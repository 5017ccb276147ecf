#include "crawler/checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>

#include "dfs/columnar.h"
#include "dfs/commit.h"
#include "util/string_util.h"

namespace cfnet::crawler {
namespace {

using dfs::AppendUVarint;
using dfs::ByteReader;
using dfs::ZigZagDecode;
using dfs::ZigZagEncode;

constexpr std::string_view kStepMagic = "CFNETCKP";
constexpr uint64_t kStepVersion = 3;
constexpr std::string_view kFilePrefix = "ckpt-";

constexpr std::string CrawledCompany::*kCompanyStrings[] = {
    &CrawledCompany::name, &CrawledCompany::twitter_url,
    &CrawledCompany::facebook_url, &CrawledCompany::crunchbase_url};

/// The report's int64 counters in payload order.
template <typename Report, typename Fn>
void ForEachCounter(Report& r, Fn fn) {
  for (auto* v :
       {&r.companies_crawled, &r.users_crawled, &r.bfs_rounds,
        &r.crunchbase_profiles, &r.crunchbase_matched_by_url,
        &r.crunchbase_matched_by_search, &r.crunchbase_ambiguous_skipped,
        &r.crunchbase_backlink_mismatches, &r.crunchbase_misses,
        &r.facebook_profiles, &r.twitter_profiles, &r.twitter_tokens,
        &r.fetch.requests, &r.fetch.retries, &r.fetch.rate_limit_waits,
        &r.fetch.token_rotations, &r.fetch.failures,
        &r.fetch.malformed_retries, &r.fetch.breaker_fast_fails,
        &r.fetch.breaker_waits, &r.makespan_micros, &r.breaker_trips,
        &r.checkpoint_writes, &r.checkpoint_restores, &r.checkpoint_bytes,
        &r.dead_lettered_ids, &r.dead_letters_replayed,
        &r.storage_temps_removed, &r.storage_quarantined}) {
    fn(*v);
  }
}

void PutI64(std::string& out, int64_t v) {
  AppendUVarint(out, ZigZagEncode(v));
}

void PutString(std::string& out, std::string_view s) {
  AppendUVarint(out, s.size());
  out.append(s);
}

void PutStrings(std::string& out, const std::vector<std::string>& v) {
  AppendUVarint(out, v.size());
  for (const std::string& s : v) PutString(out, s);
}

void PutIds(std::string& out, const std::vector<uint64_t>& ids) {
  AppendUVarint(out, ids.size());
  dfs::AppendDeltaU64Column(ids.size(), [&](size_t i) { return ids[i]; }, out);
}

/// Bounds-checked step decoding: every method returns false instead of
/// reading past the payload or sizing a list beyond what is left of it.
class StepReader {
 public:
  explicit StepReader(std::string_view payload) : r_(payload) {}

  bool Magic() {
    std::string_view magic;
    return r_.ReadRaw(kStepMagic.size(), &magic) && magic == kStepMagic;
  }
  bool U64(uint64_t* out) { return r_.ReadUVarint(out); }
  bool I64(int64_t* out) {
    uint64_t v;
    if (!r_.ReadUVarint(&v)) return false;
    *out = ZigZagDecode(v);
    return true;
  }
  /// A list length: every element takes at least one byte.
  bool Count(size_t* n) {
    uint64_t v;
    if (!r_.ReadUVarint(&v) || v > r_.remaining()) return false;
    *n = static_cast<size_t>(v);
    return true;
  }
  bool String(std::string* out) {
    uint64_t len;
    std::string_view raw;
    if (!r_.ReadUVarint(&len) || !r_.ReadRaw(len, &raw)) return false;
    out->assign(raw);
    return true;
  }
  bool Strings(std::vector<std::string>* out) {
    size_t n;
    if (!Count(&n)) return false;
    out->resize(n);
    for (std::string& s : *out) {
      if (!String(&s)) return false;
    }
    return true;
  }
  /// Strings in strictly ascending order (segment lists).
  bool SortedStrings(std::vector<std::string>* out) {
    return Strings(out) &&
           std::adjacent_find(out->begin(), out->end(),
                              std::greater_equal<>()) == out->end();
  }
  bool Ids(std::vector<uint64_t>* out) {
    size_t n;
    if (!Count(&n)) return false;
    out->resize(n);
    return dfs::DecodeDeltaU64Column(
        r_, n, [&](size_t i, uint64_t v) { (*out)[i] = v; });
  }
  bool I64s(std::vector<int64_t>* out) {
    size_t n;
    if (!Count(&n)) return false;
    out->resize(n);
    return dfs::DecodeZigZagI64Column(
        r_, n, [&](size_t i, int64_t v) { (*out)[i] = v; });
  }
  /// Companies column-major: the delta-coded ids, then each string field.
  bool Companies(std::vector<CrawledCompany>* out) {
    size_t n;
    if (!Count(&n)) return false;
    out->resize(n);
    if (!dfs::DecodeDeltaU64Column(
            r_, n, [&](size_t i, uint64_t id) { (*out)[i].id = id; })) {
      return false;
    }
    for (auto field : kCompanyStrings) {
      for (CrawledCompany& c : *out) {
        if (!String(&(c.*field))) return false;
      }
    }
    return true;
  }
  bool done() const { return r_.done(); }

 private:
  ByteReader r_;
};

/// `seq` of a `ckpt-<seq>` path, or 0 when the name does not parse.
int64_t SeqOf(std::string_view path) {
  std::string_view name = path.substr(path.rfind('/') + 1);
  if (!StartsWith(name, kFilePrefix)) return 0;
  name.remove_prefix(kFilePrefix.size());
  if (name.empty() ||
      !std::all_of(name.begin(), name.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return 0;
  }
  return std::strtoll(std::string(name).c_str(), nullptr, 10);
}

}  // namespace

void FoldStep(const CheckpointStep& step, CheckpointStep* state) {
  state->seq = step.seq;
  state->parent_seq = 0;
  state->phase = step.phase;
  state->phase_cursor = step.phase_cursor;
  state->bfs_round = step.bfs_round;
  state->company_frontier = step.company_frontier;
  state->user_frontier = step.user_frontier;
  state->twitter_tokens = step.twitter_tokens;
  state->facebook_token = step.facebook_token;
  state->worker_clocks = step.worker_clocks;
  state->report = step.report;
  state->seen_companies.insert(state->seen_companies.end(),
                               step.seen_companies.begin(),
                               step.seen_companies.end());
  state->seen_users.insert(state->seen_users.end(), step.seen_users.begin(),
                           step.seen_users.end());
  state->companies.insert(state->companies.end(), step.companies.begin(),
                          step.companies.end());
  if (!step.snapshot_segments.empty() || !step.retired_segments.empty()) {
    // The folded list names every segment of the crawl, and nearly every
    // step changes it: move its strings through the merge, never copy them.
    std::vector<std::string>& segments = state->snapshot_segments;
    std::vector<std::string> merged;
    merged.reserve(segments.size() + step.snapshot_segments.size());
    std::set_union(std::make_move_iterator(segments.begin()),
                   std::make_move_iterator(segments.end()),
                   step.snapshot_segments.begin(), step.snapshot_segments.end(),
                   std::back_inserter(merged));
    segments.clear();
    std::set_difference(std::make_move_iterator(merged.begin()),
                        std::make_move_iterator(merged.end()),
                        step.retired_segments.begin(),
                        step.retired_segments.end(),
                        std::back_inserter(segments));
  }
  state->retired_segments.clear();
}

std::string EncodeStep(const CheckpointStep& st) {
  std::string out(kStepMagic);
  AppendUVarint(out, kStepVersion);
  AppendUVarint(out, static_cast<uint64_t>(st.seq));
  AppendUVarint(out, static_cast<uint64_t>(st.parent_seq));
  PutString(out, st.phase);
  PutI64(out, st.phase_cursor);
  PutI64(out, st.bfs_round);
  PutIds(out, st.company_frontier);
  PutIds(out, st.user_frontier);
  PutStrings(out, st.twitter_tokens);
  PutString(out, st.facebook_token);
  AppendUVarint(out, st.worker_clocks.size());
  dfs::AppendZigZagI64Column(
      st.worker_clocks.size(), [&](size_t i) { return st.worker_clocks[i]; },
      out);
  ForEachCounter(st.report, [&](int64_t v) { PutI64(out, v); });
  AppendUVarint(out, st.report.degraded_phases.size());
  for (const DegradedReport& d : st.report.degraded_phases) {
    PutString(out, d.phase);
    PutI64(out, d.breaker_trips);
    PutI64(out, d.dead_lettered);
    PutString(out, d.reason);
  }
  PutIds(out, st.seen_companies);
  PutIds(out, st.seen_users);
  const std::vector<CrawledCompany>& cs = st.companies;
  AppendUVarint(out, cs.size());
  dfs::AppendDeltaU64Column(cs.size(), [&](size_t i) { return cs[i].id; }, out);
  for (auto field : kCompanyStrings) {
    for (const CrawledCompany& c : cs) PutString(out, c.*field);
  }
  PutStrings(out, st.snapshot_segments);
  PutStrings(out, st.retired_segments);
  return out;
}

Result<CheckpointStep> DecodeStep(std::string_view payload) {
  StepReader r(payload);
  CheckpointStep st;
  uint64_t version = 0, seq = 0, parent = 0;
  bool ok = r.Magic() && r.U64(&version) && version == kStepVersion &&
            r.U64(&seq) && r.U64(&parent) && seq >= 1 &&
            seq <= static_cast<uint64_t>(INT64_MAX) && parent < seq;
  st.seq = static_cast<int64_t>(seq);
  st.parent_seq = static_cast<int64_t>(parent);
  ok = ok && r.String(&st.phase) && r.I64(&st.phase_cursor) &&
       r.I64(&st.bfs_round) && r.Ids(&st.company_frontier) &&
       r.Ids(&st.user_frontier) && r.Strings(&st.twitter_tokens) &&
       r.String(&st.facebook_token) && r.I64s(&st.worker_clocks);
  ForEachCounter(st.report, [&](int64_t& v) { ok = ok && r.I64(&v); });
  size_t n = 0;
  ok = ok && r.Count(&n);
  if (ok) st.report.degraded_phases.resize(n);
  for (DegradedReport& d : st.report.degraded_phases) {
    ok = ok && r.String(&d.phase) && r.I64(&d.breaker_trips) &&
         r.I64(&d.dead_lettered) && r.String(&d.reason);
  }
  ok = ok && r.Ids(&st.seen_companies) && r.Ids(&st.seen_users) &&
       r.Companies(&st.companies) && r.SortedStrings(&st.snapshot_segments) &&
       r.SortedStrings(&st.retired_segments) && r.done();
  if (!ok) return Status::Corruption("checkpoint step: damaged payload");
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
    next_seq_ = std::max(next_seq_, SeqOf(path) + 1);
  }
}

std::string CheckpointStore::PathFor(int64_t seq) const {
  return dir_ + std::string(kFilePrefix) +
         StrFormat("%010lld", static_cast<long long>(seq));
}

std::vector<std::string> CheckpointStore::ListFiles() const {
  std::vector<std::string> out;
  for (const std::string& path : dfs_->List(dir_)) {
    if (SeqOf(path) > 0) out.push_back(path);
  }
  return out;  // List() is sorted; zero-padded names sort by sequence
}

Status CheckpointStore::Save(CheckpointStep* step,
                             const std::vector<std::string>& segments) {
  step->seq = next_seq_++;
  const bool base = head_seq_ == 0 || delta_bytes_ > base_bytes_;
  step->parent_seq = base ? 0 : head_seq_;
  step->snapshot_segments.clear();
  step->retired_segments.clear();
  const std::vector<std::string>& saved = fold_.snapshot_segments;
  std::set_difference(segments.begin(), segments.end(), saved.begin(),
                      saved.end(), std::back_inserter(step->snapshot_segments));
  std::set_difference(saved.begin(), saved.end(), segments.begin(),
                      segments.end(),
                      std::back_inserter(step->retired_segments));
  std::string payload;
  if (!base) payload = EncodeStep(*step);
  FoldStep(*step, &fold_);
  if (base) payload = EncodeStep(fold_);
  // Atomic commit: a crash anywhere in here leaves the previous checkpoints
  // or those plus a fully verified new file, never a half-written one.
  Status committed = dfs::CommitFile(dfs_, PathFor(step->seq), payload);
  if (!committed.ok()) {
    // fold_ holds everything handed over so far; a base written from it is
    // the one step that cannot miss what this failed step carried.
    head_seq_ = 0;
    return committed;
  }
  head_seq_ = step->seq;
  step->report.checkpoint_bytes += static_cast<int64_t>(payload.size());
  fold_.report.checkpoint_bytes = step->report.checkpoint_bytes;
  if (!base) {
    delta_bytes_ += payload.size();
    return Status::OK();
  }
  base_bytes_ = payload.size();
  delta_bytes_ = 0;
  bases_.push_back(step->seq);
  if (bases_.size() > static_cast<size_t>(keep_)) {
    bases_.erase(bases_.begin(), bases_.end() - keep_);
    CFNET_RETURN_IF_ERROR(DeleteChainsBefore(bases_.front()));
  }
  return Status::OK();
}

Status CheckpointStore::DeleteChainsBefore(int64_t seq) {
  // A chain's steps all come after its base, so everything older than the
  // oldest kept base belongs to a superseded chain (or to none).
  for (const std::string& path : ListFiles()) {
    if (SeqOf(path) < seq) CFNET_RETURN_IF_ERROR(dfs_->Delete(path));
  }
  return Status::OK();
}

Result<CheckpointStep> CheckpointStore::LoadLatestValid() {
  head_seq_ = 0;
  fold_ = CheckpointStep();
  base_bytes_ = delta_bytes_ = 0;
  bases_.clear();
  struct Loaded {
    bool ok = false;
    uint64_t bytes = 0;
    CheckpointStep step;
  };
  std::map<int64_t, Loaded> loaded;  // each file read and decoded once
  auto load = [&](int64_t seq) -> const Loaded& {
    auto [it, added] = loaded.try_emplace(seq);
    if (added) {
      // A damaged or unreadable file is disqualified, and with it every
      // checkpoint chained on it.
      auto payload = dfs::ReadCommitted(*dfs_, PathFor(seq));
      if (payload.ok()) {
        auto step = DecodeStep(*payload);
        it->second.ok = step.ok() && step->seq == seq;
        if (it->second.ok) it->second.step = std::move(step).value();
        it->second.bytes = payload->size();
      }
    }
    return it->second;
  };
  std::set<int64_t> broken;  // checkpoints whose chain fails somewhere
  const std::vector<std::string> files = ListFiles();
  for (auto file = files.rbegin(); file != files.rend(); ++file) {
    std::vector<int64_t> chain;  // newest first
    for (int64_t seq = SeqOf(*file); seq != 0;) {
      if (broken.count(seq) > 0 || !load(seq).ok) {
        chain.push_back(seq);
        broken.insert(chain.begin(), chain.end());
        chain.clear();
        break;
      }
      chain.push_back(seq);
      seq = loaded.at(seq).step.parent_seq;  // DecodeStep holds parent < seq
    }
    if (chain.empty()) continue;
    for (auto seq = chain.rbegin(); seq != chain.rend(); ++seq) {
      const Loaded& step = loaded.at(*seq);
      FoldStep(step.step, &fold_);
      if (seq == chain.rbegin()) {
        base_bytes_ = step.bytes;
      } else {
        delta_bytes_ += step.bytes;
      }
    }
    // A step stores the bytes committed before it; the restored state
    // counts the head's own payload too.
    fold_.report.checkpoint_bytes +=
        static_cast<int64_t>(loaded.at(chain.front()).bytes);
    head_seq_ = chain.front();
    bases_.push_back(chain.back());
    return fold_;
  }
  return Status::NotFound("no valid checkpoint under " + dir_);
}

}  // namespace cfnet::crawler
