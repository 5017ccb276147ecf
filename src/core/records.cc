#include "core/records.h"

#include <algorithm>

namespace cfnet::core {

namespace {

using json::JsonReader;
using Scalar = json::JsonReader::Scalar;

}  // namespace

Result<StartupRecord> StartupRecord::Decode(JsonReader& reader) {
  StartupRecord r;
  CFNET_RETURN_IF_ERROR(reader.ForEachMember([&](std::string_view key) -> Status {
    CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
    if (key == "id") {
      r.id = static_cast<uint64_t>(v.AsInt());
    } else if (key == "name") {
      r.name = v.AsString();
    } else if (key == "twitter_url") {
      r.has_twitter_url = !v.AsString().empty();
    } else if (key == "facebook_url") {
      r.has_facebook_url = !v.AsString().empty();
    } else if (key == "crunchbase_url") {
      r.has_crunchbase_url = !v.AsString().empty();
    } else if (key == "video_url") {
      r.has_video = !v.AsString().empty();
    } else if (key == "fundraising") {
      r.fundraising = v.AsBool();
    } else if (key == "follower_count") {
      r.follower_count = v.AsInt();
    }
    return Status::OK();
  }));
  return r;
}

Result<UserRecord> UserRecord::Decode(JsonReader& reader) {
  UserRecord r;
  CFNET_RETURN_IF_ERROR(reader.ForEachMember([&](std::string_view key) -> Status {
    if (key == "roles") {
      // Reset so a duplicate key replaces the earlier list.
      r.is_investor = r.is_founder = r.is_employee = false;
      return reader.ForEachElement([&]() -> Status {
        CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
        std::string_view s = v.AsString();
        if (s == "investor") r.is_investor = true;
        if (s == "founder") r.is_founder = true;
        if (s == "employee") r.is_employee = true;
        return Status::OK();
      });
    }
    if (key == "investment_company_ids") {
      r.investment_company_ids.clear();
      return reader.ForEachElement([&]() -> Status {
        CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
        r.investment_company_ids.push_back(static_cast<uint64_t>(v.AsInt()));
        return Status::OK();
      });
    }
    CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
    if (key == "id") {
      r.id = static_cast<uint64_t>(v.AsInt());
    } else if (key == "following_startup_count") {
      r.following_startup_count = v.AsInt();
    } else if (key == "following_user_count") {
      r.following_user_count = v.AsInt();
    }
    return Status::OK();
  }));
  return r;
}

Result<CrunchBaseRecord> CrunchBaseRecord::Decode(JsonReader& reader) {
  CrunchBaseRecord r;
  CFNET_RETURN_IF_ERROR(reader.ForEachMember([&](std::string_view key) -> Status {
    if (key == "funding_rounds") {
      r.num_rounds = 0;
      r.round_investor_ids.clear();
      CFNET_ASSIGN_OR_RETURN(bool is_array, reader.EnterArray());
      if (is_array) {
        for (;;) {
          CFNET_ASSIGN_OR_RETURN(bool more, reader.NextElement());
          if (!more) return Status::OK();
          ++r.num_rounds;
          // A duplicate investor_ids key within one round replaces that
          // round's contribution; truncating back to the round's start
          // keeps earlier rounds intact.
          const size_t round_start = r.round_investor_ids.size();
          CFNET_RETURN_IF_ERROR(
              reader.ForEachMember([&](std::string_view rk) -> Status {
                if (rk != "investor_ids") return reader.SkipValue();
                r.round_investor_ids.resize(round_start);
                return reader.ForEachElement([&]() -> Status {
                  CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
                  r.round_investor_ids.push_back(
                      static_cast<uint64_t>(v.AsInt()));
                  return Status::OK();
                });
              }));
        }
      }
      CFNET_ASSIGN_OR_RETURN(bool is_object, reader.EnterObject());
      if (is_object) {
        // An object counts one round per distinct key (a duplicate key
        // replaces, so it is not a new round).
        std::vector<std::string> seen;
        std::string_view rk;
        for (;;) {
          CFNET_ASSIGN_OR_RETURN(bool more, reader.NextMember(rk));
          if (!more) break;
          if (std::find(seen.begin(), seen.end(), rk) == seen.end()) {
            seen.emplace_back(rk);
          }
          CFNET_RETURN_IF_ERROR(reader.SkipValue());
        }
        r.num_rounds = static_cast<int64_t>(seen.size());
        return Status::OK();
      }
      return reader.SkipValue();  // scalar: zero rounds, no investor edges
    }
    CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
    if (key == "angellist_id") {
      r.angellist_id = static_cast<uint64_t>(v.AsInt());
    } else if (key == "total_funding_usd") {
      r.total_funding_usd = v.AsDouble();
    }
    return Status::OK();
  }));
  return r;
}

Result<FacebookRecord> FacebookRecord::Decode(JsonReader& reader) {
  FacebookRecord r;
  CFNET_RETURN_IF_ERROR(reader.ForEachMember([&](std::string_view key) -> Status {
    CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
    if (key == "angellist_id") {
      r.angellist_id = static_cast<uint64_t>(v.AsInt());
    } else if (key == "fan_count") {
      r.fan_count = v.AsInt();
    }
    return Status::OK();
  }));
  return r;
}

Result<TwitterRecord> TwitterRecord::Decode(JsonReader& reader) {
  TwitterRecord r;
  // A missing followers_count counts as null, like an explicit null.
  r.followers_count_null = true;
  CFNET_RETURN_IF_ERROR(reader.ForEachMember([&](std::string_view key) -> Status {
    CFNET_ASSIGN_OR_RETURN(Scalar v, reader.ReadScalar());
    if (key == "angellist_id") {
      r.angellist_id = static_cast<uint64_t>(v.AsInt());
    } else if (key == "statuses_count") {
      r.statuses_count = v.AsInt();
    } else if (key == "followers_count") {
      r.followers_count_null = v.is_null();
      r.followers_count = v.AsInt();
    }
    return Status::OK();
  }));
  return r;
}

}  // namespace cfnet::core
