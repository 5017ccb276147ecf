#ifndef CFNET_TESTS_COMMIT_FIXTURE_H_
#define CFNET_TESTS_COMMIT_FIXTURE_H_

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "dfs/commit.h"
#include "dfs/dfs.h"

namespace cfnet {

/// Writes a test fixture the way every product writer does: through the
/// commit protocol, so it reads back through ReadCommitted. Fixtures that
/// model storage damage are written raw on purpose instead.
inline void CommitFixture(dfs::MiniDfs* dfs, const std::string& path,
                          std::string_view payload) {
  ASSERT_TRUE(dfs::CommitFile(dfs, path, payload).ok()) << path;
}

}  // namespace cfnet

#endif  // CFNET_TESTS_COMMIT_FIXTURE_H_
