#include "dfs/fault_fs.h"

#include "util/rng.h"

namespace cfnet::dfs {

bool IoFaultInjector::Hit(const std::vector<IoFaultWindow>& windows,
                          uint64_t op, uint64_t category) {
  for (const IoFaultWindow& w : windows) {
    if (!w.Contains(op)) continue;
    if (w.rate >= 1.0) return true;
    if (w.rate <= 0.0) continue;
    uint64_t serial = draw_serial_.fetch_add(1, std::memory_order_relaxed);
    double u = UnitFromHash(Mix64(plan_.seed * 0x9e3779b97f4a7c15ull +
                                  category * 0x2545f4914f6cdd1dull + serial));
    if (u < w.rate) return true;
  }
  return false;
}

double IoFaultInjector::Draw(uint64_t category) {
  uint64_t serial = draw_serial_.fetch_add(1, std::memory_order_relaxed);
  return UnitFromHash(Mix64(plan_.seed * 0xd1342543de82ef95ull +
                            category * 0x9e3779b97f4a7c15ull + serial));
}

WriteFaultDecision IoFaultInjector::EvaluateWrite(uint64_t op) {
  WriteFaultDecision d;
  if (Hit(plan_.enospc, op, 1)) {
    d.enospc = true;
    return d;
  }
  if (Hit(plan_.torn_writes, op, 2)) {
    d.torn = true;
    d.fraction = Draw(2);
    return d;
  }
  if (Hit(plan_.silent_loss, op, 3)) {
    d.silent_loss = true;
    d.fraction = Draw(3);
    return d;
  }
  if (Hit(plan_.write_bit_flips, op, 4)) {
    d.bit_flip = true;
    d.fraction = Draw(4);
  }
  return d;
}

ReadFaultDecision IoFaultInjector::EvaluateRead(uint64_t op) {
  ReadFaultDecision d;
  if (Hit(plan_.short_reads, op, 5)) {
    d.short_read = true;
    d.fraction = Draw(5);
    return d;
  }
  if (Hit(plan_.read_bit_flips, op, 6)) {
    d.bit_flip = true;
    d.fraction = Draw(6);
  }
  return d;
}

}  // namespace cfnet::dfs
