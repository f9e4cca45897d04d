#include "src/core/held_locks.h"

#include <limits>
#include <unordered_map>
#include <utility>

#include "src/db/schema.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

LockClassifier::LockClassifier(const Database& db, const TypeRegistry& registry)
    : db_(db), registry_(registry), members_(db.table(LockDocSchema::kMembers)) {
  const Table& locks = db.table(LockDocSchema::kLocks);
  member_name_column_ = members_.ColumnIndex("name");
  is_static_ = locks.ColumnU64Data(locks.ColumnIndex("is_static"));
  name_sid_ = locks.ColumnU64Data(locks.ColumnIndex("name_sid"));
  addr_ = locks.ColumnU64Data(locks.ColumnIndex("addr"));
  owner_alloc_ = locks.ColumnU64Data(locks.ColumnIndex("owner_alloc_id"));
  owner_member_ = locks.ColumnU64Data(locks.ColumnIndex("owner_member_id"));
  member_type_ = members_.ColumnU64Data(members_.ColumnIndex("type_id"));
}

LockClass LockClassifier::ClassifyScoped(uint64_t lock_row, bool same_allocation) const {
  if (is_static(lock_row)) {
    uint64_t name_sid = name_sid_[lock_row];
    if (name_sid != 0) {
      return LockClass::Global(db_.String(static_cast<StringId>(name_sid)));
    }
    return LockClass::Global(
        StrFormat("lock@0x%llx", static_cast<unsigned long long>(addr_[lock_row])));
  }
  uint64_t member_row = owner_member(lock_row);
  const std::string& lock_name = members_.GetString(member_row, member_name_column_);
  const std::string& type_name =
      registry_.layout(static_cast<TypeId>(member_type_[member_row])).name();
  return same_allocation ? LockClass::Same(lock_name, type_name)
                         : LockClass::Other(lock_name, type_name);
}

std::vector<HeldLockInfo> ClassifyHeldLocks(const Database& db,
                                            const TypeRegistry& registry, uint64_t txn,
                                            uint64_t access_alloc) {
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kTlPos = txn_locks.ColumnIndex("position");
  const size_t kTlLock = txn_locks.ColumnIndex("lock_id");
  const size_t kTlMode = txn_locks.ColumnIndex("mode");
  const size_t kTlFile = txn_locks.ColumnIndex("file_sid");
  const size_t kTlLine = txn_locks.ColumnIndex("line");
  LockClassifier classifier(db, registry);

  std::vector<RowId> rows = txn_locks.LookupEqual(kTlTxn, txn);
  std::vector<HeldLockInfo> held(rows.size());
  for (RowId row : rows) {
    uint64_t pos = txn_locks.GetUint64(row, kTlPos);
    LOCKDOC_CHECK(pos < held.size());
    HeldLockInfo& entry = held[pos];
    entry.lock_class = classifier.Classify(txn_locks.GetUint64(row, kTlLock), access_alloc);
    entry.mode = static_cast<AcquireMode>(txn_locks.GetUint64(row, kTlMode));
    entry.file_sid = txn_locks.GetUint64(row, kTlFile);
    entry.line = txn_locks.GetUint64(row, kTlLine);
  }
  return held;
}

HeldLockIds HeldLockIds::Build(const Database& db, const TypeRegistry& registry,
                               const LockClassPool& pool) {
  HeldLockIds ids;
  auto id_of = [&pool](const LockClass& cls) { return pool.Find(cls).value_or(kUninterned); };

  // Lock-row table. An embedded lock's class depends only on its owning
  // lock member and the scope, so each member is resolved once.
  LockClassifier classifier(db, registry);
  const size_t lock_rows = db.table(LockDocSchema::kLocks).row_count();
  LOCKDOC_CHECK(lock_rows < std::numeric_limits<uint32_t>::max());
  ids.locks_.resize(lock_rows);
  std::unordered_map<uint64_t, std::pair<LockId, LockId>> by_member;
  for (uint64_t row = 0; row < lock_rows; ++row) {
    LockRow& lock = ids.locks_[row];
    lock.owner_alloc = classifier.owner_alloc(row);
    if (classifier.is_static(row)) {
      lock.same = lock.other = id_of(classifier.ClassifyScoped(row, true));
      continue;
    }
    auto [it, inserted] = by_member.try_emplace(classifier.owner_member(row));
    if (inserted) {
      it->second = {id_of(classifier.ClassifyScoped(row, true)),
                    id_of(classifier.ClassifyScoped(row, false))};
    }
    lock.same = it->second.first;
    lock.other = it->second.second;
  }

  // Held table: a counting pass over txn_id (a row of the txns table),
  // then every row at its transaction's range start plus its position.
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const size_t rows = txn_locks.row_count();
  const size_t txns = db.table(LockDocSchema::kTxns).row_count();
  LOCKDOC_CHECK(rows < std::numeric_limits<uint32_t>::max());
  const uint64_t* txn = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("txn_id"));
  const uint64_t* pos = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("position"));
  const uint64_t* lock = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("lock_id"));
  const uint64_t* mode = txn_locks.ColumnU64Data(txn_locks.ColumnIndex("mode"));
  ids.offsets_.assign(txns + 1, 0);
  for (size_t row = 0; row < rows; ++row) {
    LOCKDOC_CHECK(txn[row] < txns);
    ++ids.offsets_[txn[row] + 1];
  }
  for (size_t t = 0; t < txns; ++t) {
    ids.offsets_[t + 1] += ids.offsets_[t];
  }
  ids.held_.resize(rows);
  for (size_t row = 0; row < rows; ++row) {
    const uint32_t begin = ids.offsets_[txn[row]];
    LOCKDOC_CHECK(pos[row] < ids.offsets_[txn[row] + 1] - begin);
    LOCKDOC_CHECK(lock[row] < lock_rows);
    Held& held = ids.held_[begin + pos[row]];
    LOCKDOC_CHECK(held.lock_row == std::numeric_limits<uint32_t>::max());  // Positions unique.
    held.lock_row = static_cast<uint32_t>(lock[row]);
    held.mode = static_cast<AcquireMode>(mode[row]);
  }
  return ids;
}

}  // namespace lockdoc
