#ifndef CFNET_NET_TOKENS_H_
#define CFNET_NET_TOKENS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/result.h"

namespace cfnet::net {

/// Access-token issuance and validation for the simulated services.
///
/// Models the two auth flows §3 relies on:
///  - Twitter: each user may register at most `kMaxAppsPerOwner` apps,
///    each app yielding one access token (so the paper shards the crawl
///    across machines/tokens to beat the per-token rate limit).
///  - Facebook: login yields a short-lived token which can be exchanged
///    for a long-lived one ("through certain procedures including creating
///    a Facebook App"), after which the crawler "works without limitations".
class TokenRegistry {
 public:
  static constexpr int kMaxAppsPerOwner = 5;

  TokenRegistry() = default;

  TokenRegistry(const TokenRegistry&) = delete;
  TokenRegistry& operator=(const TokenRegistry&) = delete;

  /// Registers an app for `owner`; fails with ResourceExhausted once the
  /// owner hits the app cap. Returns a never-expiring app token.
  Result<std::string> RegisterApp(const std::string& owner);

  /// Issues a short-lived token (expires at now + ttl).
  std::string IssueShortLivedToken(const std::string& owner, int64_t now_micros,
                                   int64_t ttl_micros);

  /// Exchanges a valid short-lived token for a long-lived (never expiring)
  /// one; fails if the short token is unknown or already expired.
  Result<std::string> ExchangeForLongLived(const std::string& short_token,
                                           int64_t now_micros);

  /// True iff `token` exists and has not expired at `now_micros`.
  bool IsValid(const std::string& token, int64_t now_micros) const;

 private:
  struct TokenInfo {
    std::string owner;
    int64_t expires_at_micros = -1;  // -1 = never
  };

  std::string NewTokenLocked(const std::string& owner, int64_t expires_at);

  mutable std::mutex mu_;
  std::unordered_map<std::string, TokenInfo> tokens_;
  std::unordered_map<std::string, int> apps_per_owner_;
  uint64_t next_serial_ = 1;
};

}  // namespace cfnet::net

#endif  // CFNET_NET_TOKENS_H_
