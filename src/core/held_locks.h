// Held-lock classification: the one place a lock instance (a row of the
// locks table) becomes a LockClass relative to the accessed allocation, with
// the same scoping as the rule notation. Observation extraction classifies
// every held lock through it, and the lock-order graph every ordered pair;
// the violation forensics list a transaction's held locks with their
// acquisition mode and source site from the txn_locks table (the trace
// records no acquisition stacks, so the site is a (file_sid, line) pair, not
// a frame list); and the mode analysis reads the same classes as interned
// ids, without building a string per held lock.
#ifndef SRC_CORE_HELD_LOCKS_H_
#define SRC_CORE_HELD_LOCKS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/db/database.h"
#include "src/model/lock_class.h"
#include "src/model/lock_class_pool.h"
#include "src/model/lock_type.h"
#include "src/model/type_registry.h"

namespace lockdoc {

// Resolves rows of the locks table to lock classes. Read-only over the
// database and registry, which must outlive it and stay unmodified; safe to
// share across threads.
class LockClassifier {
 public:
  LockClassifier(const Database& db, const TypeRegistry& registry);

  // The class of `lock_row` as held during an access to `access_alloc`:
  // ES when the lock lives in that allocation, EO when in another instance,
  // global for a static lock. An unnamed static lock is "lock@0x<addr>".
  LockClass Classify(uint64_t lock_row, uint64_t access_alloc) const {
    return ClassifyScoped(lock_row, owner_alloc(lock_row) == access_alloc);
  }

  // The ES (`same_allocation`) or EO class of an embedded lock; the global
  // class of a static lock, whatever `same_allocation` says.
  LockClass ClassifyScoped(uint64_t lock_row, bool same_allocation) const;

  bool is_static(uint64_t lock_row) const { return is_static_[lock_row] != 0; }
  uint64_t owner_alloc(uint64_t lock_row) const { return owner_alloc_[lock_row]; }
  uint64_t owner_member(uint64_t lock_row) const { return owner_member_[lock_row]; }

 private:
  const Database& db_;
  const TypeRegistry& registry_;
  const Table& members_;
  size_t member_name_column_;
  const uint64_t* is_static_;
  const uint64_t* name_sid_;
  const uint64_t* addr_;
  const uint64_t* owner_alloc_;
  const uint64_t* owner_member_;
  const uint64_t* member_type_;
};

struct HeldLockInfo {
  LockClass lock_class;
  AcquireMode mode = AcquireMode::kExclusive;
  uint64_t file_sid = 0;  // Acquisition site.
  uint64_t line = 0;
};

// Every lock transaction `txn` held, classified relative to `access_alloc`,
// in acquisition order. This includes range holds that extraction dropped
// from an observation's sequence because they do not cover the allocation.
std::vector<HeldLockInfo> ClassifyHeldLocks(const Database& db,
                                            const TypeRegistry& registry, uint64_t txn,
                                            uint64_t access_alloc);

// The held locks of every transaction as (LockId, mode) pairs over one
// store's LockClassPool: the integer mirror of ClassifyHeldLocks that the
// mode analysis runs on.
//
// Two tables make it up. The lock-row table gives each locks row its pool
// id as seen from its own allocation and from any other one (one id for a
// static lock); classes are resolved once per static lock and once per
// owning lock member, not per row. The held table is the txn_locks rows in
// CSR form: one counting pass over txn_id sizes each transaction's range,
// and each row lands at its range start plus its position, so a
// transaction's held locks are one contiguous, acquisition-ordered range
// whatever the row order of txn_locks.
class HeldLockIds {
 public:
  // The id of a held class the pool never interned. Every rule lock of a
  // derived winner is interned, so this id matches none of them, and id
  // equality is exactly LockClass equality.
  static constexpr LockId kUninterned = std::numeric_limits<LockId>::max();

  static HeldLockIds Build(const Database& db, const TypeRegistry& registry,
                           const LockClassPool& pool);

  // Calls visit(id, mode) for every lock `txn` held, in acquisition order,
  // classified relative to `access_alloc` — the ClassifyHeldLocks list.
  template <typename Visit>
  void ForEachHeld(uint64_t txn, uint64_t access_alloc, Visit&& visit) const {
    if (offsets_.empty() || txn >= offsets_.size() - 1) {
      return;  // The transaction has no txn_locks rows.
    }
    for (uint32_t slot = offsets_[txn]; slot < offsets_[txn + 1]; ++slot) {
      const Held& held = held_[slot];
      const LockRow& lock = locks_[held.lock_row];
      visit(lock.owner_alloc == access_alloc ? lock.same : lock.other, held.mode);
    }
  }

 private:
  struct LockRow {
    uint64_t owner_alloc = 0;
    LockId same = kUninterned;
    LockId other = kUninterned;
  };
  struct Held {
    uint32_t lock_row = std::numeric_limits<uint32_t>::max();
    AcquireMode mode = AcquireMode::kExclusive;
  };

  std::vector<LockRow> locks_;     // Indexed by locks row.
  std::vector<uint32_t> offsets_;  // txn -> first held_ slot; one past the last txn.
  std::vector<Held> held_;         // txn_locks rows, grouped by txn, by position.
};

}  // namespace lockdoc

#endif  // SRC_CORE_HELD_LOCKS_H_
