#ifndef CFNET_DFS_FAULT_FS_H_
#define CFNET_DFS_FAULT_FS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfnet::dfs {

/// One scripted storage-fault interval, expressed in *operation serials*
/// rather than virtual time: MiniDFS has no clock of its own, but every
/// write/read carries a monotonically increasing op number, so "ops 40-60
/// hit ENOSPC" replays deterministically the way net::FaultWindow scripts
/// "seconds 3-5 answer 503". An op inside [begin_op, end_op) is hit with
/// probability `rate` (1.0 = always; fractional rates draw from the plan's
/// seeded hash stream, so replays of a scenario make identical decisions).
/// `end_op == 0` means "until forever".
struct IoFaultWindow {
  uint64_t begin_op = 0;
  uint64_t end_op = 0;
  double rate = 1.0;

  bool Contains(uint64_t op) const {
    return op >= begin_op && (end_op == 0 || op < end_op);
  }
};

/// Scripted failure scenario for the storage substrate — the disk-side twin
/// of net::FaultPlan. Write faults (consulted once per WriteFile):
///
///  - `enospc`: the write fails ResourceExhausted and persists nothing
///    (a full disk rejects the allocation up front).
///  - `torn_writes`: a seeded prefix of the bytes persists, then the write
///    fails IOError (power loss mid-write; the caller knows it failed).
///  - `silent_loss`: a seeded prefix persists but the write reports OK —
///    an acknowledged fsync whose pages never hit the platter. Only
///    read-back verification or a CRC footer can catch this.
///  - `write_bit_flips`: every byte persists but one of them flipped, and
///    the write reports OK (a rotten write buffer). Only the file-level
///    footer can catch this.
///
/// Read faults (consulted once per ReadFile):
///
///  - `short_reads`: only a seeded prefix of the file comes back (the call
///    still reports success, as POSIX short reads do).
///  - `read_bit_flips`: one byte of the returned copy is flipped in flight;
///    the stored bytes stay intact, so a retry reads clean data.
struct IoFaultPlan {
  std::vector<IoFaultWindow> enospc;
  std::vector<IoFaultWindow> torn_writes;
  std::vector<IoFaultWindow> silent_loss;
  std::vector<IoFaultWindow> write_bit_flips;
  std::vector<IoFaultWindow> short_reads;
  std::vector<IoFaultWindow> read_bit_flips;
  /// Seed for fractional-rate and tear-point draws.
  uint64_t seed = 1;

  bool empty() const {
    return enospc.empty() && torn_writes.empty() && silent_loss.empty() &&
           write_bit_flips.empty() && short_reads.empty() &&
           read_bit_flips.empty();
  }
};

/// Per-write fault decision. At most one failure mode fires per op
/// (precedence: enospc > torn > silent loss > bit flip).
struct WriteFaultDecision {
  bool enospc = false;
  bool torn = false;
  bool silent_loss = false;
  bool bit_flip = false;
  /// Seeded draw in [0, 1): tear point for torn/silent-loss prefixes and
  /// flip-offset source for bit flips.
  double fraction = 0.0;
};

/// Per-read fault decision (precedence: short read > bit flip).
struct ReadFaultDecision {
  bool short_read = false;
  bool bit_flip = false;
  double fraction = 0.0;
};

/// Evaluates an IoFaultPlan against operation serials. Thread-safe; all
/// draws are counter-based Mix64 hashes of (seed, category, serial), so a
/// decision depends only on the plan and the op order, never on wall-clock
/// or thread interleaving sources.
class IoFaultInjector {
 public:
  explicit IoFaultInjector(IoFaultPlan plan) : plan_(std::move(plan)) {}

  IoFaultInjector(const IoFaultInjector&) = delete;
  IoFaultInjector& operator=(const IoFaultInjector&) = delete;

  WriteFaultDecision EvaluateWrite(uint64_t op);
  ReadFaultDecision EvaluateRead(uint64_t op);

  const IoFaultPlan& plan() const { return plan_; }

 private:
  bool Hit(const std::vector<IoFaultWindow>& windows, uint64_t op,
           uint64_t category);
  double Draw(uint64_t category);

  IoFaultPlan plan_;
  std::atomic<uint64_t> draw_serial_{0};
};

}  // namespace cfnet::dfs

#endif  // CFNET_DFS_FAULT_FS_H_
