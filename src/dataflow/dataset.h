#ifndef CFNET_DATAFLOW_DATASET_H_
#define CFNET_DATAFLOW_DATASET_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dataflow/context.h"
#include "dataflow/narrow_chain.h"
#include "util/logging.h"

namespace cfnet::dataflow {

/// A dataset's physical layout: one vector per partition.
template <typename T>
using Partitions = std::vector<std::vector<T>>;

namespace internal_dataset {

/// Lazily-computed, memoized partitioned collection (the RDD analogue).
/// `compute` runs at most once, on the first action; narrow transformations
/// extend a fused per-element chain (executed as a single morsel-driven
/// stage), wide ones insert a hash shuffle.
template <typename T>
struct Impl {
  std::shared_ptr<ExecutionContext> ctx;
  size_t num_partitions = 1;
  std::function<Partitions<T>()> compute;
  std::once_flag once;
  Partitions<T> data;
  /// The fused narrow pipeline this impl's compute executes, when the impl
  /// is a narrow transformation. Further narrow ops extend it (re-running it
  /// from the source on their own evaluation, Spark-style) instead of
  /// materializing this impl.
  std::shared_ptr<internal_chain::NarrowChain<T>> chain;
  /// Set once `data` is valid; downstream ops then read `data` directly
  /// instead of re-running `chain`.
  std::atomic<bool> materialized{false};

  const Partitions<T>& Materialize() {
    std::call_once(once, [this]() {
      data = compute();
      compute = nullptr;  // release captured parents
      materialized.store(true, std::memory_order_release);
    });
    return data;
  }
};

}  // namespace internal_dataset

/// Lazy, partitioned, parallel collection — the MiniSpark analogue of an
/// RDD/Dataset. All transformations are lazy and memoized: the pipeline
/// executes once, on the first action (`Collect`, `Count`, ...), in parallel
/// across partitions on the context's thread pool.
///
/// Chained narrow transformations (Map/Filter/FlatMap) fuse into a single
/// stage: one pass per partition morsel, one output allocation, no
/// intermediate partitions. Wide (shuffle) operations and `Union` are the
/// materialization boundaries. A consequence of fusion: an *unmaterialized*
/// narrow dataset used by several downstream pipelines is recomputed from
/// its source by each of them (as in Spark).
///
/// The operators are the ones the paper's analyses run: the narrow three,
/// `Union`, `Distinct` and `LeftOuterJoin` (the hash-shuffled wide ones),
/// and the actions `Collect`, `Count` and `Reduce`.
///
/// Copying a Dataset is cheap (shared immutable state). Element types must
/// be copyable; key types used in wide operations additionally need
/// std::hash and operator==.
template <typename T>
class Dataset {
 public:
  /// Internal: wraps an implementation node. Use `FromVector` or a
  /// transformation to create datasets.
  explicit Dataset(std::shared_ptr<internal_dataset::Impl<T>> impl)
      : impl_(std::move(impl)) {}

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;

  /// Creates a dataset by range-partitioning `data` into
  /// `num_partitions` (0 = one per pool thread) chunks.
  static Dataset FromVector(std::shared_ptr<ExecutionContext> ctx,
                            std::vector<T> data, size_t num_partitions = 0) {
    CFNET_CHECK(ctx != nullptr);
    size_t np = num_partitions == 0 ? ctx->parallelism() : num_partitions;
    np = std::max<size_t>(1, np);
    auto impl = std::make_shared<internal_dataset::Impl<T>>();
    impl->ctx = ctx;
    impl->num_partitions = np;
    auto shared = std::make_shared<std::vector<T>>(std::move(data));
    impl->compute = [shared, np]() {
      Partitions<T> parts(np);
      size_t n = shared->size();
      size_t base = n / np;
      size_t extra = n % np;
      size_t offset = 0;
      for (size_t p = 0; p < np; ++p) {
        size_t len = base + (p < extra ? 1 : 0);
        parts[p].assign(shared->begin() + offset, shared->begin() + offset + len);
        offset += len;
      }
      return parts;
    };
    return Dataset(std::move(impl));
  }

  std::shared_ptr<ExecutionContext> context() const { return impl_->ctx; }
  size_t num_partitions() const { return impl_->num_partitions; }

  /// --- narrow transformations -------------------------------------------
  /// Each of these extends the fused chain: evaluation runs the whole chain
  /// in one morsel-driven stage with a single output allocation.

  /// Element-wise transform.
  template <typename F>
  auto Map(F f) const -> Dataset<std::decay_t<std::invoke_result_t<F, const T&>>> {
    using U = std::decay_t<std::invoke_result_t<F, const T&>>;
    auto pchain = ChainFor(impl_);
    auto chain = std::make_shared<internal_chain::NarrowChain<U>>();
    InheritSource(*chain, *pchain);
    if (auto src = pchain->source_part) {
      chain->run = [src, f](size_t p, size_t begin, size_t end,
                            std::vector<U>& out) {
        const std::vector<T>& part = *src(p);
        out.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) out.push_back(f(part[i]));
      };
    } else if constexpr (std::is_same_v<T, U>) {
      // 1:1 same-type transform: rewrite the parent's buffer in place.
      chain->run = [pchain, f](size_t p, size_t begin, size_t end,
                               std::vector<U>& out) {
        pchain->run(p, begin, end, out);
        for (T& x : out) x = f(std::as_const(x));
      };
    } else {
      chain->run = [pchain, f](size_t p, size_t begin, size_t end,
                               std::vector<U>& out) {
        std::vector<T> in;
        pchain->run(p, begin, end, in);
        out.reserve(in.size());
        for (const T& x : in) out.push_back(f(x));
      };
    }
    return Dataset<U>(MakeChained<U>(impl_->ctx, chain));
  }

  /// Keeps elements satisfying `pred`.
  template <typename F>
  Dataset<T> Filter(F pred) const {
    auto pchain = ChainFor(impl_);
    auto chain = std::make_shared<internal_chain::NarrowChain<T>>();
    InheritSource(*chain, *pchain);
    if (auto src = pchain->source_part) {
      chain->run = [src, pred](size_t p, size_t begin, size_t end,
                               std::vector<T>& out) {
        const std::vector<T>& part = *src(p);
        out.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          if (pred(part[i])) out.push_back(part[i]);
        }
      };
    } else {
      // Compacts the parent's buffer in place.
      chain->run = [pchain, pred](size_t p, size_t begin, size_t end,
                                  std::vector<T>& out) {
        pchain->run(p, begin, end, out);
        std::erase_if(out, [&pred](const T& x) { return !pred(x); });
      };
    }
    return Dataset<T>(MakeChained<T>(impl_->ctx, chain));
  }

  /// Expands each element into zero or more outputs; `f` returns any
  /// iterable container of the output type.
  template <typename F>
  auto FlatMap(F f) const
      -> Dataset<typename std::decay_t<std::invoke_result_t<F, const T&>>::value_type> {
    using C = std::decay_t<std::invoke_result_t<F, const T&>>;
    using U = typename C::value_type;
    auto pchain = ChainFor(impl_);
    auto chain = std::make_shared<internal_chain::NarrowChain<U>>();
    InheritSource(*chain, *pchain);
    auto expand = [f](const T& x, std::vector<U>& out) {
      C items = f(x);
      for (auto& item : items) out.push_back(std::move(item));
    };
    if (auto src = pchain->source_part) {
      chain->run = [src, expand](size_t p, size_t begin, size_t end,
                                 std::vector<U>& out) {
        const std::vector<T>& part = *src(p);
        for (size_t i = begin; i < end; ++i) expand(part[i], out);
      };
    } else {
      chain->run = [pchain, expand](size_t p, size_t begin, size_t end,
                                    std::vector<U>& out) {
        std::vector<T> in;
        pchain->run(p, begin, end, in);
        for (const T& x : in) expand(x, out);
      };
    }
    return Dataset<U>(MakeChained<U>(impl_->ctx, chain));
  }

  /// Concatenation (partitions of both inputs are preserved).
  Dataset<T> Union(const Dataset<T>& other) const {
    auto a = impl_;
    auto b = other.impl_;
    auto out = std::make_shared<internal_dataset::Impl<T>>();
    out->ctx = a->ctx;
    out->num_partitions = a->num_partitions + b->num_partitions;
    out->compute = [a, b]() {
      const auto& pa = a->Materialize();
      const auto& pb = b->Materialize();
      Partitions<T> result;
      result.reserve(pa.size() + pb.size());
      for (const auto& p : pa) result.push_back(p);
      for (const auto& p : pb) result.push_back(p);
      return result;
    };
    return Dataset<T>(std::move(out));
  }

  /// --- wide transformations (shuffle) -------------------------------------

  /// Deduplicates (hash shuffle so equal elements meet in one partition).
  /// First occurrence order within a partition is retained.
  Dataset<T> Distinct() const {
    auto parent = impl_;
    const size_t np = parent->num_partitions;
    auto out = std::make_shared<internal_dataset::Impl<T>>();
    out->ctx = parent->ctx;
    out->num_partitions = np;
    out->compute = [parent, np]() {
      Partitions<T> shuffled = ShuffleBy(
          parent->ctx.get(), parent->Materialize(), np,
          [](const T& x) { return std::hash<T>{}(x); });
      Partitions<T> result(np);
      parent->ctx->RunParallel(np, [&](size_t p) {
        std::unordered_set<T> seen;
        seen.reserve(shuffled[p].size());
        for (T& x : shuffled[p]) {
          if (seen.insert(x).second) result[p].push_back(std::move(x));
        }
      });
      return result;
    };
    return Dataset<T>(std::move(out));
  }

  /// --- actions -------------------------------------------------------------

  /// Materializes and flattens to a single vector (partition order).
  std::vector<T> Collect() const {
    const auto& parts = impl_->Materialize();
    size_t total = 0;
    for (const auto& p : parts) total += p.size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
    return out;
  }

  /// Number of elements.
  size_t Count() const {
    const auto& parts = impl_->Materialize();
    size_t total = 0;
    for (const auto& p : parts) total += p.size();
    return total;
  }

  /// Parallel fold with an associative, commutative `f` and identity.
  template <typename F>
  T Reduce(F f, T identity) const {
    const auto& parts = impl_->Materialize();
    std::vector<T> partials(parts.size(), identity);
    impl_->ctx->RunParallel(parts.size(), [&](size_t i) {
      T acc = identity;
      for (const T& x : parts[i]) acc = f(acc, x);
      partials[i] = acc;
    });
    T acc = identity;
    for (const T& p : partials) acc = f(acc, p);
    return acc;
  }

  /// Internal access for LeftOuterJoin.
  const std::shared_ptr<internal_dataset::Impl<T>>& impl() const { return impl_; }

  /// Hash-partitions `in` into `np` buckets by `key_of(x)` (already-hashed
  /// values). Used by every wide operation; exposed for LeftOuterJoin. A
  /// counting pass pre-sizes every bucket exactly, so the bucketing pass
  /// never reallocates.
  template <typename KeyHashFn>
  static Partitions<T> ShuffleBy(ExecutionContext* ctx, const Partitions<T>& in,
                                 size_t np, KeyHashFn key_of) {
    // Phase 1: per input partition, bucket locally (parallel, no contention).
    std::vector<Partitions<T>> local(in.size());
    ctx->RunParallel(in.size(), [&](size_t i) {
      std::vector<uint32_t> bucket_of(in[i].size());
      std::vector<size_t> counts(np, 0);
      for (size_t j = 0; j < in[i].size(); ++j) {
        uint32_t b = static_cast<uint32_t>(MixToBucket(key_of(in[i][j]), np));
        bucket_of[j] = b;
        ++counts[b];
      }
      local[i].assign(np, {});
      for (size_t b = 0; b < np; ++b) local[i][b].reserve(counts[b]);
      for (size_t j = 0; j < in[i].size(); ++j) {
        local[i][bucket_of[j]].push_back(in[i][j]);
      }
    });
    // Phase 2: concatenate bucket b from every input partition (parallel).
    Partitions<T> out(np);
    ctx->RunParallel(np, [&](size_t b) {
      size_t total = 0;
      for (size_t i = 0; i < local.size(); ++i) total += local[i][b].size();
      out[b].reserve(total);
      for (size_t i = 0; i < local.size(); ++i) {
        auto& src = local[i][b];
        out[b].insert(out[b].end(), std::make_move_iterator(src.begin()),
                      std::make_move_iterator(src.end()));
      }
      ctx->metrics().shuffle_records.fetch_add(total, std::memory_order_relaxed);
    });
    return out;
  }

 private:
  template <typename U>
  friend class Dataset;

  /// Mixes an already-hashed key into a bucket index so that sequential
  /// keys spread (std::hash<int> is identity).
  static size_t MixToBucket(size_t h, size_t np) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h % np;
  }

  /// The chain a new narrow op should extend: this impl's own chain while it
  /// is still unmaterialized (fusion), otherwise a fresh base chain
  /// streaming this impl's (to-be-)materialized partitions.
  static std::shared_ptr<internal_chain::NarrowChain<T>> ChainFor(
      const std::shared_ptr<internal_dataset::Impl<T>>& impl) {
    auto chain = impl->chain;
    if (chain && !impl->materialized.load(std::memory_order_acquire)) {
      return chain;
    }
    auto base = std::make_shared<internal_chain::NarrowChain<T>>();
    base->materialize_source = [impl]() { impl->Materialize(); };
    base->source_sizes = [impl]() {
      std::vector<size_t> sizes;
      sizes.reserve(impl->data.size());
      for (const auto& part : impl->data) sizes.push_back(part.size());
      return sizes;
    };
    base->run = [impl](size_t p, size_t begin, size_t end,
                       std::vector<T>& out) {
      const std::vector<T>& part = impl->data[p];
      out.assign(part.begin() + begin, part.begin() + end);
    };
    base->source_part = [impl](size_t p) { return &impl->data[p]; };
    base->num_partitions = impl->num_partitions;
    base->fused_ops = 0;
    return base;
  }

  /// Copies source plumbing from the parent chain and counts the new op.
  template <typename U, typename S>
  static void InheritSource(internal_chain::NarrowChain<U>& chain,
                            const internal_chain::NarrowChain<S>& parent) {
    chain.materialize_source = parent.materialize_source;
    chain.source_sizes = parent.source_sizes;
    chain.num_partitions = parent.num_partitions;
    chain.fused_ops = parent.fused_ops + 1;
  }

  /// Wraps a fused chain in a lazy impl whose compute runs it as one
  /// morsel-driven stage.
  template <typename U>
  static std::shared_ptr<internal_dataset::Impl<U>> MakeChained(
      std::shared_ptr<ExecutionContext> ctx,
      std::shared_ptr<internal_chain::NarrowChain<U>> chain) {
    auto out = std::make_shared<internal_dataset::Impl<U>>();
    out->ctx = ctx;
    out->num_partitions = chain->num_partitions;
    out->chain = chain;
    out->compute = [ctx, chain]() {
      return internal_chain::ExecuteNarrowStage<U>(*ctx, *chain);
    };
    return out;
  }

  std::shared_ptr<internal_dataset::Impl<T>> impl_;
};

/// --- key-value operations ----------------------------------------------

/// Left outer hash join over Dataset<std::pair<K, V>> (K requires std::hash
/// and ==): right side is optional (missing -> default V2 and matched=false
/// flag). The output has the left side's partition count.
template <typename K, typename V1, typename V2>
Dataset<std::pair<K, std::pair<V1, std::pair<V2, bool>>>> LeftOuterJoin(
    const Dataset<std::pair<K, V1>>& left,
    const Dataset<std::pair<K, V2>>& right) {
  using L = std::pair<K, V1>;
  using R = std::pair<K, V2>;
  using O = std::pair<K, std::pair<V1, std::pair<V2, bool>>>;
  auto lp = left.impl();
  auto rp = right.impl();
  const size_t np = lp->num_partitions;
  auto out = std::make_shared<internal_dataset::Impl<O>>();
  out->ctx = lp->ctx;
  out->num_partitions = np;
  out->compute = [lp, rp, np]() {
    Partitions<L> ls = Dataset<L>::ShuffleBy(
        lp->ctx.get(), lp->Materialize(), np,
        [](const L& kv) { return std::hash<K>{}(kv.first); });
    Partitions<R> rs = Dataset<R>::ShuffleBy(
        lp->ctx.get(), rp->Materialize(), np,
        [](const R& kv) { return std::hash<K>{}(kv.first); });
    Partitions<O> result(np);
    lp->ctx->RunParallel(np, [&](size_t p) {
      std::unordered_multimap<K, V2> table;
      table.reserve(rs[p].size());
      for (R& kv : rs[p]) table.emplace(kv.first, std::move(kv.second));
      for (const L& kv : ls[p]) {
        auto range = table.equal_range(kv.first);
        if (range.first == range.second) {
          result[p].emplace_back(
              kv.first, std::make_pair(kv.second, std::make_pair(V2{}, false)));
        } else {
          for (auto it = range.first; it != range.second; ++it) {
            result[p].emplace_back(
                kv.first,
                std::make_pair(kv.second, std::make_pair(it->second, true)));
          }
        }
      }
    });
    return result;
  };
  return Dataset<O>(std::move(out));
}

}  // namespace cfnet::dataflow

#endif  // CFNET_DATAFLOW_DATASET_H_
