#ifndef CFNET_SERVE_EPOCH_STORE_H_
#define CFNET_SERVE_EPOCH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace cfnet::serve {

/// Epoch-pinned snapshot hot-swap: the publisher (crawler/compaction side)
/// installs new immutable snapshots; readers (query workers) pin the current
/// one for the duration of a request. In-flight queries keep reading the
/// pinned old epoch while new queries pin the new one.
///
/// The current snapshot is one shared_ptr behind a mutex: Acquire() copies
/// it and its epoch under the lock, and a Pin holds that copy. A retired
/// epoch stays on the store's list until no Pin holds it; Publish and Sweep
/// then free it, after releasing the lock. Because the store keeps its own
/// reference to every live epoch, dropping a Pin never frees a snapshot:
/// frees run on the publisher, and a query worker never waits on one.
template <typename T>
class EpochStore {
 public:
  EpochStore() = default;
  EpochStore(const EpochStore&) = delete;
  EpochStore& operator=(const EpochStore&) = delete;

  /// RAII pin on one published snapshot. Move-only; empty (operator bool
  /// false) when nothing has been published yet.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&&) noexcept = default;
    Pin& operator=(Pin&&) noexcept = default;

    explicit operator bool() const { return snap_ != nullptr; }
    const T& operator*() const { return *snap_; }
    const T* operator->() const { return snap_.get(); }
    const T* get() const { return snap_.get(); }
    uint64_t epoch() const { return epoch_; }

   private:
    friend class EpochStore;
    Pin(std::shared_ptr<const T> snap, uint64_t epoch)
        : snap_(std::move(snap)), epoch_(epoch) {}

    std::shared_ptr<const T> snap_;
    uint64_t epoch_ = 0;
  };

  /// Publishes `snap` as the new current epoch and returns its epoch number
  /// (monotone from 1). Retires the previous epoch, then frees every
  /// retired epoch no Pin holds.
  uint64_t Publish(std::unique_ptr<const T> snap) {
    CFNET_CHECK(snap != nullptr);
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = ++published_;
      if (current_ != nullptr) retirees_.push_back(std::move(current_));
      current_ = std::move(snap);
      current_epoch_ = epoch;
    }
    Sweep();
    return epoch;
  }

  /// Pins the current snapshot. Empty before the first Publish.
  Pin Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    return Pin(current_, current_epoch_);
  }

  /// Frees the retired epochs no Pin holds (also runs on every Publish).
  /// Returns the number of snapshots freed by this call.
  size_t Sweep() {
    std::vector<std::shared_ptr<const T>> unpinned;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A retired epoch is out of Acquire's reach, so a use count of 1 (the
      // list's own) cannot rise again.
      for (std::shared_ptr<const T>& snap : retirees_) {
        if (snap.use_count() == 1) unpinned.push_back(std::move(snap));
      }
      std::erase(retirees_, nullptr);
      freed_ += unpinned.size();
    }
    return unpinned.size();  // `unpinned` frees them here, outside the lock
  }

  uint64_t current_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_epoch_;
  }
  /// Epochs published / freed so far.
  uint64_t published() const {
    std::lock_guard<std::mutex> lock(mu_);
    return published_;
  }
  uint64_t retired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return freed_;
  }
  /// Pins currently held across all live epochs (racy snapshot, tests only).
  int64_t live_pins() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t pins = current_ != nullptr ? current_.use_count() - 1 : 0;
    for (const std::shared_ptr<const T>& snap : retirees_) {
      pins += snap.use_count() - 1;
    }
    return pins;
  }
  /// Live (unfreed) epochs: the current one plus still-pinned retirees.
  size_t live_epochs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return (current_ != nullptr ? 1 : 0) + retirees_.size();
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> current_;
  uint64_t current_epoch_ = 0;
  std::vector<std::shared_ptr<const T>> retirees_;
  uint64_t published_ = 0;
  uint64_t freed_ = 0;
};

}  // namespace cfnet::serve

#endif  // CFNET_SERVE_EPOCH_STORE_H_
