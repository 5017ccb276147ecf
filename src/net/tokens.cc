#include "net/tokens.h"

namespace cfnet::net {

std::string TokenRegistry::NewTokenLocked(const std::string& owner,
                                          int64_t expires_at) {
  std::string token = "tok-" + std::to_string(next_serial_++) + "-" + owner;
  tokens_[token] = TokenInfo{owner, expires_at};
  return token;
}

Result<std::string> TokenRegistry::RegisterApp(const std::string& owner) {
  std::lock_guard<std::mutex> lock(mu_);
  int& count = apps_per_owner_[owner];
  if (count >= kMaxAppsPerOwner) {
    return Status::ResourceExhausted("owner '" + owner + "' already has " +
                                     std::to_string(count) + " apps");
  }
  ++count;
  return NewTokenLocked(owner, -1);
}

std::string TokenRegistry::IssueShortLivedToken(const std::string& owner,
                                                int64_t now_micros,
                                                int64_t ttl_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  return NewTokenLocked(owner, now_micros + ttl_micros);
}

Result<std::string> TokenRegistry::ExchangeForLongLived(
    const std::string& short_token, int64_t now_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tokens_.find(short_token);
  if (it == tokens_.end()) {
    return Status::NotFound("unknown token");
  }
  if (it->second.expires_at_micros >= 0 &&
      it->second.expires_at_micros <= now_micros) {
    return Status::FailedPrecondition("short-lived token expired");
  }
  return NewTokenLocked(it->second.owner, -1);
}

bool TokenRegistry::IsValid(const std::string& token, int64_t now_micros) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tokens_.find(token);
  if (it == tokens_.end()) return false;
  return it->second.expires_at_micros < 0 ||
         it->second.expires_at_micros > now_micros;
}

}  // namespace cfnet::net
