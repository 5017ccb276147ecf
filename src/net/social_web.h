#ifndef CFNET_NET_SOCIAL_WEB_H_
#define CFNET_NET_SOCIAL_WEB_H_

#include <memory>
#include <optional>

#include "net/angellist.h"
#include "net/crunchbase.h"
#include "net/facebook.h"
#include "net/twitter.h"
#include "synth/world.h"

namespace cfnet::net {

/// Optional per-service behaviour overrides (fault-tolerance tests script
/// outages, error rates and rate limits per service; unset services keep
/// their canonical defaults).
struct SocialWebConfig {
  std::optional<ServiceConfig> angellist;
  std::optional<ServiceConfig> crunchbase;
  std::optional<ServiceConfig> facebook;
  std::optional<ServiceConfig> twitter;
};

/// The whole simulated web: one instance of each service over a shared
/// ground-truth world. This is what a Crawler is pointed at.
class SocialWeb {
 public:
  explicit SocialWeb(const synth::World* world,
                     const SocialWebConfig& config = {})
      : world_(world),
        angellist_(config.angellist
                       ? std::make_unique<AngelListService>(world, *config.angellist)
                       : std::make_unique<AngelListService>(world)),
        crunchbase_(config.crunchbase
                        ? std::make_unique<CrunchBaseService>(world, *config.crunchbase)
                        : std::make_unique<CrunchBaseService>(world)),
        facebook_(config.facebook
                      ? std::make_unique<FacebookService>(world, *config.facebook)
                      : std::make_unique<FacebookService>(world)),
        twitter_(config.twitter
                     ? std::make_unique<TwitterService>(world, *config.twitter)
                     : std::make_unique<TwitterService>(world)) {}

  SocialWeb(const SocialWeb&) = delete;
  SocialWeb& operator=(const SocialWeb&) = delete;

  const synth::World& world() const { return *world_; }
  AngelListService& angellist() { return *angellist_; }
  CrunchBaseService& crunchbase() { return *crunchbase_; }
  FacebookService& facebook() { return *facebook_; }
  TwitterService& twitter() { return *twitter_; }

 private:
  const synth::World* world_;
  std::unique_ptr<AngelListService> angellist_;
  std::unique_ptr<CrunchBaseService> crunchbase_;
  std::unique_ptr<FacebookService> facebook_;
  std::unique_ptr<TwitterService> twitter_;
};

}  // namespace cfnet::net

#endif  // CFNET_NET_SOCIAL_WEB_H_
