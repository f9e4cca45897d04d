#include "src/core/observations.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/util/logging.h"

namespace lockdoc {

const std::vector<ObservationGroup> ObservationStore::kEmptyGroups;

// Per-store subsequence-enumeration cache. Entries are heap-allocated so
// their once_flags stay put when the store moves; the mutex guards only
// (re)building the entry table, and call_once makes each entry's fill
// thread-safe with exactly one computing thread.
struct ObservationStore::EnumCache {
  struct Entry {
    std::once_flag once;
    std::vector<IdSeq> subseqs;
  };

  std::mutex mu;
  size_t max_locks = 0;
  std::vector<std::unique_ptr<Entry>> entries;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

ObservationStore::ObservationStore() : enum_cache_(std::make_unique<EnumCache>()) {}
ObservationStore::~ObservationStore() = default;
ObservationStore::ObservationStore(ObservationStore&&) noexcept = default;
ObservationStore& ObservationStore::operator=(ObservationStore&&) noexcept = default;

uint32_t ObservationStore::InternSeq(const LockSeq& seq) {
  auto it = seq_index_.find(seq);
  if (it != seq_index_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(seqs_.size());
  seqs_.push_back(seq);
  id_seqs_.push_back(pool_.InternSeq(seq));
  seq_index_.emplace(seq, id);
  return id;
}

const LockSeq& ObservationStore::seq(uint32_t id) const {
  LOCKDOC_CHECK(id < seqs_.size());
  return seqs_[id];
}

const IdSeq& ObservationStore::id_seq(uint32_t id) const {
  LOCKDOC_CHECK(id < id_seqs_.size());
  return id_seqs_[id];
}

const std::vector<IdSeq>& ObservationStore::CachedSubsequenceIds(uint32_t seq_id,
                                                                 size_t max_locks) const {
  LOCKDOC_CHECK(seq_id < id_seqs_.size());
  LOCKDOC_CHECK(enum_cache_ != nullptr);  // Absent only in a moved-from store.
  EnumCache& cache = *enum_cache_;
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (cache.entries.size() != id_seqs_.size() || cache.max_locks != max_locks) {
      // New sequences were interned or the expansion bound changed: rebuild.
      // Callers must not hold references across such a change.
      cache.entries.clear();
      cache.entries.reserve(id_seqs_.size());
      for (size_t i = 0; i < id_seqs_.size(); ++i) {
        cache.entries.push_back(std::make_unique<EnumCache::Entry>());
      }
      cache.max_locks = max_locks;
    }
  }
  EnumCache::Entry& entry = *cache.entries[seq_id];
  bool computed = false;
  std::call_once(entry.once, [&] {
    entry.subseqs = EnumerateSubsequenceIds(id_seqs_[seq_id], max_locks);
    computed = true;
  });
  (computed ? cache.misses : cache.hits).fetch_add(1, std::memory_order_relaxed);
  return entry.subseqs;
}

uint64_t ObservationStore::enum_cache_hits() const {
  return enum_cache_ == nullptr ? 0 : enum_cache_->hits.load(std::memory_order_relaxed);
}

uint64_t ObservationStore::enum_cache_misses() const {
  return enum_cache_ == nullptr ? 0 : enum_cache_->misses.load(std::memory_order_relaxed);
}

void ObservationStore::ResetForSnapshot(
    LockClassPool pool, std::vector<IdSeq> id_seqs,
    std::map<MemberObsKey, std::vector<ObservationGroup>> groups) {
  pool_ = std::move(pool);
  id_seqs_ = std::move(id_seqs);
  groups_ = std::move(groups);
  seqs_.clear();
  seqs_.reserve(id_seqs_.size());
  seq_index_.clear();
  for (size_t i = 0; i < id_seqs_.size(); ++i) {
    seqs_.push_back(pool_.Materialize(id_seqs_[i]));
    bool inserted = seq_index_.emplace(seqs_.back(), static_cast<uint32_t>(i)).second;
    LOCKDOC_CHECK(inserted && "duplicate sequence in serialized store");
  }
  enum_cache_ = std::make_unique<EnumCache>();
}

const std::vector<ObservationGroup>& ObservationStore::GroupsFor(const MemberObsKey& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? kEmptyGroups : it->second;
}

uint64_t ObservationStore::CountObservations(const MemberObsKey& key, AccessType access) const {
  uint64_t count = 0;
  for (const ObservationGroup& group : GroupsFor(key)) {
    if (group.effective() == access) {
      ++count;
    }
  }
  return count;
}

MemberAccessIndex MemberAccessIndex::Build(const ObservationStore& store) {
  MemberAccessIndex index;
  for (const auto& [key, groups] : store.groups()) {
    Entry& entry = index.entries_[key];
    for (size_t i = 0; i < groups.size(); ++i) {
      entry.groups[static_cast<size_t>(groups[i].effective())].push_back(
          static_cast<uint32_t>(i));
    }
  }
  return index;
}

const MemberAccessIndex::Entry* MemberAccessIndex::Find(const MemberObsKey& key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

uint64_t MemberAccessIndex::Count(const MemberObsKey& key, AccessType access) const {
  const Entry* entry = Find(key);
  return entry == nullptr ? 0 : entry->For(access).size();
}

const std::vector<uint32_t> LockPostingIndex::kEmptyPostings;

LockPostingIndex LockPostingIndex::Build(const ObservationStore& store) {
  LockPostingIndex index;
  index.postings_.resize(store.pool().size());
  for (uint32_t seq_id = 0; seq_id < store.distinct_seqs(); ++seq_id) {
    // Dedup in place: a lock appearing twice in one sequence (nested
    // same-class locking) must post the sequence only once.
    IdSeq ids = store.id_seq(seq_id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (LockId id : ids) {
      index.postings_[id].push_back(seq_id);
    }
  }
  return index;
}

const std::vector<uint32_t>& LockPostingIndex::Postings(LockId id) const {
  return id < postings_.size() ? postings_[id] : kEmptyPostings;
}

std::vector<uint32_t> LockPostingIndex::ComplyingSeqs(const ObservationStore& store,
                                                      const IdSeq& rule_ids) const {
  if (rule_ids.empty()) {
    std::vector<uint32_t> all(store.distinct_seqs());
    for (uint32_t i = 0; i < all.size(); ++i) {
      all[i] = i;
    }
    return all;
  }

  // Presence filter: intersect the posting lists, rarest lock first.
  const std::vector<uint32_t>* seed = &Postings(rule_ids[0]);
  for (LockId id : rule_ids) {
    const std::vector<uint32_t>& postings = Postings(id);
    if (postings.size() < seed->size()) {
      seed = &postings;
    }
  }
  std::vector<uint32_t> candidates;
  candidates.reserve(seed->size());
  for (uint32_t seq_id : *seed) {
    bool present = true;
    for (LockId id : rule_ids) {
      const std::vector<uint32_t>& postings = Postings(id);
      if (!std::binary_search(postings.begin(), postings.end(), seq_id)) {
        present = false;
        break;
      }
    }
    // Order filter: presence does not imply the rule's acquisition order
    // (or multiplicity); the two-pointer subsequence check decides.
    if (present && IsSubsequenceIds(rule_ids, store.id_seq(seq_id))) {
      candidates.push_back(seq_id);
    }
  }
  return candidates;
}

RuleCompliance::RuleCompliance(const ObservationStore& store, const MemberAccessIndex& members,
                               const LockPostingIndex& postings, const LockSeq& rule)
    : store_(&store), members_(&members) {
  if (std::optional<IdSeq> rule_ids = store.pool().FindSeq(rule)) {
    complying_ = postings.ComplyingSeqs(store, *rule_ids);
  }
}

bool RuleCompliance::Complies(const ObservationGroup& group) const {
  return std::binary_search(complying_.begin(), complying_.end(), group.lockseq_id);
}

std::string QualifiedMemberName(const TypeRegistry& registry, const MemberObsKey& key) {
  return registry.QualifiedName(key.type, key.subclass) + "." +
         registry.layout(key.type).member(key.member).name;
}

namespace {

// Open-group key: one folded observation per (txn, alloc, member_row).
struct GroupKey {
  uint64_t txn = 0;
  uint64_t alloc = 0;
  uint64_t member_row = 0;

  friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
};

struct GroupKeyHash {
  size_t operator()(const GroupKey& key) const {
    // splitmix64-style mixing of the three fields.
    uint64_t h = key.txn;
    for (uint64_t v : {key.alloc, key.member_row}) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

// A distinct (txn, alloc) pair whose held-lock classes need classifying.
struct ClassTask {
  uint64_t txn = 0;
  uint64_t alloc = 0;
};

}  // namespace

ObservationStore ExtractObservations(const Database& db, const TypeRegistry& registry,
                                     ThreadPool* pool) {
  ObservationStore store;

  const Table& accesses = db.table(LockDocSchema::kAccesses);
  const Table& allocations = db.table(LockDocSchema::kAllocations);
  const Table& members = db.table(LockDocSchema::kMembers);
  const Table& txns = db.table(LockDocSchema::kTxns);
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);

  const size_t kAccSeq = accesses.ColumnIndex("seq");
  const size_t kAccAlloc = accesses.ColumnIndex("alloc_id");
  const size_t kAccMember = accesses.ColumnIndex("member_id");
  const size_t kAccType = accesses.ColumnIndex("access_type");
  const size_t kAccTxn = accesses.ColumnIndex("txn_id");
  const size_t kAccFilter = accesses.ColumnIndex("filter_reason");

  const size_t kAllocType = allocations.ColumnIndex("type_id");
  const size_t kAllocSubclass = allocations.ColumnIndex("subclass");

  const size_t kMemberIdx = members.ColumnIndex("member_idx");

  const size_t kTxnEndSeq = txns.ColumnIndex("end_seq");

  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kTlPos = txn_locks.ColumnIndex("position");
  const size_t kTlLock = txn_locks.ColumnIndex("lock_id");

  // Range-lock support (optional tables, present only for ranged traces).
  // A held range lock covers an access only when its span overlaps the
  // accessed allocation's ground-truth span; a non-overlapping hold is
  // dropped from that access's held sequence — it is neither compliance
  // nor violation, the access is simply not protected by it. Allocations
  // without a recorded span are conservatively covered by every hold, and
  // non-range holds always cover, so range-free traces take the exact
  // pre-range path.
  const bool has_ranges =
      db.HasTable(LockDocSchema::kAllocRanges) && db.HasTable(LockDocSchema::kTxnLockRanges);
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> alloc_span;
  const Table* txn_lock_ranges = nullptr;
  size_t kTlrTxn = 0, kTlrPos = 0, kTlrStart = 0, kTlrEnd = 0;
  if (has_ranges) {
    const Table& alloc_ranges = db.table(LockDocSchema::kAllocRanges);
    const size_t kArAlloc = alloc_ranges.ColumnIndex("alloc_id");
    const size_t kArStart = alloc_ranges.ColumnIndex("range_start");
    const size_t kArEnd = alloc_ranges.ColumnIndex("range_end");
    for (RowId row = 0; row < alloc_ranges.row_count(); ++row) {
      alloc_span[alloc_ranges.GetUint64(row, kArAlloc)] = {
          alloc_ranges.GetUint64(row, kArStart), alloc_ranges.GetUint64(row, kArEnd)};
    }
    txn_lock_ranges = &db.table(LockDocSchema::kTxnLockRanges);
    kTlrTxn = txn_lock_ranges->ColumnIndex("txn_id");
    kTlrPos = txn_lock_ranges->ColumnIndex("position");
    kTlrStart = txn_lock_ranges->ColumnIndex("range_start");
    kTlrEnd = txn_lock_ranges->ColumnIndex("range_end");
  }

  // --- Pass 1 (serial): fold accesses into groups in trace order. ---
  //
  // Classification of held locks is deferred: a newly created group records
  // the index of its (txn, alloc) classification task in `lockseq_id`; the
  // real interned ids are patched in after pass 3. Task order is group
  // first-appearance order — exactly the order the serial implementation
  // interned sequences in, which keeps interned ids byte-identical.
  std::vector<ClassTask> tasks;
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, uint32_t>> task_index;  // txn -> alloc -> task

  // Open groups only. Accesses arrive in seq order and a transaction id is
  // never reused after its end_seq, so a group whose txn has ended can be
  // evicted: it will never receive another access. The expiry heap releases
  // groups as the scan passes their transaction's end, keeping the map
  // proportional to *live* transactions instead of the whole trace.
  std::unordered_map<GroupKey, std::pair<MemberObsKey, size_t>, GroupKeyHash> open_groups;
  using Expiry = std::pair<uint64_t, GroupKey>;  // (txn end_seq, group)
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>> expiry;

  // Pass 2's lookups all hit txn_locks.txn_id; build that index on a spare
  // thread while the serial fold below runs, so the lookups start against a
  // ready index. (The build is internally synchronized; with no spare
  // thread it simply happens at the first lookup as usual.)
  std::optional<std::thread> index_warmer;
  if (pool != nullptr && pool->thread_count() > 1) {
    index_warmer.emplace([&txn_locks, kTlTxn] { txn_locks.WarmIndex(kTlTxn); });
  }

  // The fold touches six access columns per row; raw column pointers keep
  // the per-row cost at array reads (columns built by the importer are
  // always owned and contiguous).
  const uint64_t* acc_filter = accesses.ColumnU64Data(kAccFilter);
  const uint64_t* acc_seq = accesses.ColumnU64Data(kAccSeq);
  const uint64_t* acc_txn = accesses.ColumnU64Data(kAccTxn);
  const uint64_t* acc_alloc = accesses.ColumnU64Data(kAccAlloc);
  const uint64_t* acc_member = accesses.ColumnU64Data(kAccMember);
  const uint64_t* acc_type = accesses.ColumnU64Data(kAccType);
  const uint64_t* alloc_type = allocations.ColumnU64Data(kAllocType);
  const uint64_t* alloc_subclass = allocations.ColumnU64Data(kAllocSubclass);
  const uint64_t* member_idx = members.ColumnU64Data(kMemberIdx);
  const uint64_t* txn_end_seq = txns.ColumnU64Data(kTxnEndSeq);

  for (RowId row = 0; row < accesses.row_count(); ++row) {
    if (acc_filter[row] != static_cast<uint64_t>(FilterReason::kNone)) {
      continue;
    }
    uint64_t seq = acc_seq[row];
    uint64_t txn = acc_txn[row];
    uint64_t alloc = acc_alloc[row];
    uint64_t member_row = acc_member[row];
    LOCKDOC_CHECK(alloc != kDbNull && member_row != kDbNull && txn != kDbNull);

    while (!expiry.empty() && expiry.top().first <= seq) {
      open_groups.erase(expiry.top().second);
      task_index.erase(expiry.top().second.txn);  // Its txn id is never reused.
      expiry.pop();
    }

    GroupKey group_key{txn, alloc, member_row};
    auto it = open_groups.find(group_key);
    if (it == open_groups.end()) {
      // Resolve the member population key.
      MemberObsKey key;
      key.type = static_cast<TypeId>(alloc_type[alloc]);
      key.subclass = static_cast<SubclassId>(alloc_subclass[alloc]);
      key.member = static_cast<MemberIndex>(member_idx[member_row]);

      auto& by_alloc = task_index[txn];
      auto task_it = by_alloc.find(alloc);
      if (task_it == by_alloc.end()) {
        task_it = by_alloc.emplace(alloc, static_cast<uint32_t>(tasks.size())).first;
        tasks.push_back({txn, alloc});
      }

      std::vector<ObservationGroup>& groups = store.MutableGroups(key);
      ObservationGroup group;
      group.lockseq_id = task_it->second;  // Task index; patched after pass 3.
      group.txn_id = txn;
      group.alloc_id = alloc;
      groups.push_back(std::move(group));
      it = open_groups.emplace(group_key, std::make_pair(key, groups.size() - 1)).first;

      // An access inside a transaction precedes its end, so end_seq > seq
      // here and the group stays open at least until the txn ends. A null
      // end_seq (possible only outside the importer) never expires.
      uint64_t end_seq = txn_end_seq[txn];
      if (end_seq != kDbNull) {
        expiry.emplace(end_seq, group_key);
      }
    }

    ObservationGroup& group = store.MutableGroups(it->second.first)[it->second.second];
    if (acc_type[row] == static_cast<uint64_t>(AccessType::kWrite)) {
      ++group.n_writes;
    } else {
      ++group.n_reads;
    }
    group.seqs.push_back(seq);
  }
  if (index_warmer.has_value()) {
    index_warmer->join();
  }

  // --- Pass 2 (parallel): classify each distinct (txn, alloc) pair. ---
  // Tasks only read the database and registry (all const, no lazy state)
  // and write their own slot. Consecutive tasks usually share a
  // transaction, so each chunk keeps a local cache of its lock rows.
  std::vector<LockSeq> classified(tasks.size());
  const LockClassifier classifier(db, registry);
  struct HeldPosition {
    uint64_t lock_row = 0;
    bool has_range = false;
    uint64_t range_start = 0;
    uint64_t range_end = 0;
  };
  auto classify_range = [&](size_t begin, size_t end) {
    uint64_t cached_txn = kDbNull;
    std::vector<HeldPosition> cached_positions;
    for (size_t i = begin; i < end; ++i) {
      const ClassTask& task = tasks[i];
      if (task.txn != cached_txn) {
        cached_txn = task.txn;
        cached_positions.clear();
        std::vector<RowId> rows = txn_locks.LookupEqual(kTlTxn, task.txn);
        cached_positions.resize(rows.size());
        for (RowId tl_row : rows) {
          uint64_t pos = txn_locks.GetUint64(tl_row, kTlPos);
          LOCKDOC_CHECK(pos < cached_positions.size());
          cached_positions[pos].lock_row = txn_locks.GetUint64(tl_row, kTlLock);
        }
        if (txn_lock_ranges != nullptr) {
          for (RowId tlr_row : txn_lock_ranges->LookupEqual(kTlrTxn, task.txn)) {
            uint64_t pos = txn_lock_ranges->GetUint64(tlr_row, kTlrPos);
            LOCKDOC_CHECK(pos < cached_positions.size());
            cached_positions[pos].has_range = true;
            cached_positions[pos].range_start = txn_lock_ranges->GetUint64(tlr_row, kTlrStart);
            cached_positions[pos].range_end = txn_lock_ranges->GetUint64(tlr_row, kTlrEnd);
          }
        }
      }
      // The accessed allocation's ground-truth span, if it has one.
      const std::pair<uint64_t, uint64_t>* span = nullptr;
      if (has_ranges) {
        auto span_it = alloc_span.find(task.alloc);
        if (span_it != alloc_span.end()) {
          span = &span_it->second;
        }
      }
      LockSeq seq;
      seq.reserve(cached_positions.size());
      for (const HeldPosition& held : cached_positions) {
        if (held.has_range && span != nullptr &&
            !RangesOverlap(held.range_start, held.range_end, span->first, span->second)) {
          continue;  // The hold does not cover this object.
        }
        seq.push_back(classifier.Classify(held.lock_row, task.alloc));
      }
      classified[i] = std::move(seq);
    }
  };
  ParallelFor(pool, tasks.size(), classify_range);

  // --- Pass 3 (serial): intern in task order, then patch group ids. ---
  std::vector<uint32_t> task_seq_id(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    task_seq_id[i] = store.InternSeq(classified[i]);
  }
  for (const auto& [key, groups] : store.groups()) {
    for (ObservationGroup& group : store.MutableGroups(key)) {
      group.lockseq_id = task_seq_id[group.lockseq_id];
    }
  }

  return store;
}

}  // namespace lockdoc
