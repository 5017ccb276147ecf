#include "util/flags.h"

#include <cstdlib>
#include <string_view>

#include "util/string_util.h"

namespace cfnet {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) continue;
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      flags_[std::string(arg)] = "true";
    } else {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& default_value) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& key, int64_t default_value) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& key, double default_value) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

}  // namespace cfnet
