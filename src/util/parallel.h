#ifndef CFNET_UTIL_PARALLEL_H_
#define CFNET_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstddef>

#include "util/thread_pool.h"

namespace cfnet {

/// How an analytics kernel may parallelize. The default (no pool) runs on
/// the calling thread; callers that own a ThreadPool opt in explicitly.
///
/// Every kernel taking a ParallelOptions promises the same bit-identical
/// result for any pool width and any morsel size: morsels write disjoint
/// outputs, and whatever must be accumulated across them is folded
/// serially afterwards, in index order, never in scheduling order.
struct ParallelOptions {
  /// Worker pool; nullptr = run everything on the calling thread.
  ThreadPool* pool = nullptr;
  /// Items per claimed morsel; 0 lets the kernel pick (~8 morsels per
  /// thread). Only affects scheduling granularity, never results.
  size_t morsel_size = 0;

  size_t threads() const { return pool == nullptr ? 1 : pool->num_threads(); }
};

/// Splits [0, n) into contiguous morsels and runs fn(begin, end) for each,
/// through pool->RunBulk when a pool is present (the caller participates,
/// so nesting inside a pool worker cannot deadlock). `min_morsel` floors
/// the automatic morsel size so tiny tasks are not over-sharded.
///
/// fn must restrict itself to task-local state and writes disjoint across
/// morsels; under that contract the result cannot depend on thread count
/// or morsel size.
template <typename Fn>
void ForEachMorsel(const ParallelOptions& par, size_t n, size_t min_morsel,
                   Fn&& fn) {
  if (n == 0) return;
  size_t morsel = par.morsel_size;
  if (morsel == 0) {
    size_t target = std::max<size_t>(1, par.threads() * 8);
    morsel = std::max<size_t>(std::max<size_t>(1, min_morsel),
                              (n + target - 1) / target);
  }
  const size_t num = (n + morsel - 1) / morsel;
  auto run = [&fn, morsel, n](size_t m) {
    fn(m * morsel, std::min(n, (m + 1) * morsel));
  };
  if (par.pool == nullptr || par.threads() <= 1 || num <= 1) {
    for (size_t m = 0; m < num; ++m) run(m);
  } else {
    par.pool->RunBulk(num, run);
  }
}

}  // namespace cfnet

#endif  // CFNET_UTIL_PARALLEL_H_
