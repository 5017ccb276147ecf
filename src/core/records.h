#ifndef CFNET_CORE_RECORDS_H_
#define CFNET_CORE_RECORDS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "json/reader.h"
#include "util/result.h"

namespace cfnet::core {

/// Typed views of the crawler's JSON-lines snapshots. These are what the
/// Spark-style analyses operate on after the cleaning/extraction stage.
///
/// Each record type has one decoder, `Decode(JsonReader&)`: streaming and
/// DOM-free. It fails only on malformed JSON, with the reader's verdict.
/// Missing fields and fields of the wrong type coerce to neutral defaults,
/// unknown fields are skipped, and a duplicate key replaces the earlier
/// value. `DecodeLine<T>` decodes one whole JSON-lines line.

struct StartupRecord {
  uint64_t id = 0;
  std::string name;
  bool has_twitter_url = false;
  bool has_facebook_url = false;
  bool has_crunchbase_url = false;
  bool has_video = false;
  bool fundraising = false;
  int64_t follower_count = 0;

  bool operator==(const StartupRecord&) const = default;

  static Result<StartupRecord> Decode(json::JsonReader& reader);
};

struct UserRecord {
  uint64_t id = 0;
  bool is_investor = false;
  bool is_founder = false;
  bool is_employee = false;
  std::vector<uint64_t> investment_company_ids;  // AngelList-visible
  int64_t following_startup_count = 0;
  int64_t following_user_count = 0;

  bool operator==(const UserRecord&) const = default;

  static Result<UserRecord> Decode(json::JsonReader& reader);
};

struct CrunchBaseRecord {
  uint64_t angellist_id = 0;
  double total_funding_usd = 0;
  int64_t num_rounds = 0;
  /// Flattened (investor, this company) edges from all rounds.
  std::vector<uint64_t> round_investor_ids;

  bool funded() const { return total_funding_usd > 0 || num_rounds > 0; }

  bool operator==(const CrunchBaseRecord&) const = default;

  static Result<CrunchBaseRecord> Decode(json::JsonReader& reader);
};

struct FacebookRecord {
  uint64_t angellist_id = 0;
  int64_t fan_count = 0;  // likes

  bool operator==(const FacebookRecord&) const = default;

  static Result<FacebookRecord> Decode(json::JsonReader& reader);
};

struct TwitterRecord {
  uint64_t angellist_id = 0;
  int64_t statuses_count = 0;
  int64_t followers_count = 0;
  bool followers_count_null = false;

  bool operator==(const TwitterRecord&) const = default;

  static Result<TwitterRecord> Decode(json::JsonReader& reader);
};

/// Decodes `line` as one T: `T::Decode`, then `JsonReader::Finish`, so
/// trailing bytes after the record fail like any other malformed JSON.
template <typename T>
Result<T> DecodeLine(std::string_view line) {
  json::JsonReader reader(line);
  CFNET_ASSIGN_OR_RETURN(T record, T::Decode(reader));
  CFNET_RETURN_IF_ERROR(reader.Finish());
  return record;
}

}  // namespace cfnet::core

#endif  // CFNET_CORE_RECORDS_H_
