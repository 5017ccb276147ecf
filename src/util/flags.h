#ifndef CFNET_UTIL_FLAGS_H_
#define CFNET_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

namespace cfnet {

/// Tiny `--key=value` / `--flag` command-line parser for the example and
/// benchmark binaries. Unrecognized positional arguments are ignored.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  bool Has(const std::string& key) const { return flags_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace cfnet

#endif  // CFNET_UTIL_FLAGS_H_
