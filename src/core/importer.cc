#include "src/core/importer.h"

#include <mutex>
#include <set>
#include <vector>

#include "src/util/logging.h"

namespace lockdoc {
namespace {

// One lock currently held during the replay.
struct HeldLockState {
  LockInstanceId lock = 0;
  uint64_t acquire_seq = 0;
  AcquireMode mode = AcquireMode::kExclusive;
  StringId acquire_file = 0;
  uint32_t acquire_line = 0;
  // Range-lock holds: the locked [start, end) span. A release names the
  // exact span it acquired, so (lock, range) identifies the hold.
  bool has_range = false;
  uint64_t range_start = 0;
  uint64_t range_end = 0;
};

// A memory access after the sequential replay attributed it: which
// allocation contained the address at that moment, and which transaction
// was current. Member resolution and filter classification are pure
// functions of this record, so they run in the parallel phase below.
struct StagedAccess {
  uint32_t event_index = 0;
  uint64_t alloc_id = 0;
  uint64_t txn_id = 0;
};

}  // namespace

TraceImporter::TraceImporter(const TypeRegistry* registry, FilterConfig filter)
    : registry_(registry), filter_(std::move(filter)) {
  LOCKDOC_CHECK(registry_ != nullptr);
}

ImportStats TraceImporter::Import(const Trace& trace, Database* db, ThreadPool* pool) {
  LOCKDOC_CHECK(db != nullptr);
  CreateLockDocSchema(db);
  ImportStats stats;
  stats.events = trace.size();

  // Range-lock tables exist only when the trace uses ranges, so databases
  // (and their snapshots) of legacy traces are byte-identical to before.
  bool any_range = false;
  for (const TraceEvent& e : trace.events()) {
    if (e.has_range) {
      any_range = true;
      break;
    }
  }
  if (any_range) {
    CreateRangeTables(db);
  }
  Table* alloc_ranges = any_range ? &db->table(LockDocSchema::kAllocRanges) : nullptr;
  Table* txn_lock_ranges = any_range ? &db->table(LockDocSchema::kTxnLockRanges) : nullptr;

  // The database owns a copy of the trace's strings (ids preserved), so
  // every *_sid column stays resolvable after the trace is gone.
  db->mutable_strings().Reset(
      std::vector<std::string>(trace.string_pool().strings()));

  // --- Dimension tables: data types, subclasses, members. ---
  Table& data_types = db->table(LockDocSchema::kDataTypes);
  Table& subclasses = db->table(LockDocSchema::kSubclasses);
  Table& members = db->table(LockDocSchema::kMembers);
  // Global member row id for (type, member index).
  std::vector<std::vector<uint64_t>> member_row(registry_->type_count());
  {
    uint64_t subclass_row = 0;
    for (TypeId type = 0; type < registry_->type_count(); ++type) {
      const TypeLayout& layout = registry_->layout(type);
      data_types.Insert({static_cast<uint64_t>(type), layout.name()});
      for (SubclassId sub : registry_->SubclassesOf(type)) {
        subclasses.Insert({subclass_row++, static_cast<uint64_t>(type),
                           static_cast<uint64_t>(sub), registry_->SubclassName(type, sub)});
      }
      member_row[type].resize(layout.member_count());
      for (MemberIndex m = 0; m < layout.member_count(); ++m) {
        const MemberDef& def = layout.member(m);
        uint64_t row = members.row_count();
        member_row[type][m] = row;
        members.Insert({row, static_cast<uint64_t>(type), static_cast<uint64_t>(m), def.name,
                        static_cast<uint64_t>(def.offset), static_cast<uint64_t>(def.size),
                        static_cast<uint64_t>(def.is_lock ? 1 : 0),
                        static_cast<uint64_t>(def.is_atomic ? 1 : 0),
                        static_cast<uint64_t>(def.blacklisted ? 1 : 0)});
      }
    }
  }

  // --- Function black lists resolved to interned string ids. ---
  // A name that was never interned cannot appear on any stack.
  std::set<StringId> init_teardown_sids;
  std::set<StringId> ignored_sids;
  for (const std::string& fn : filter_.init_teardown_functions) {
    if (auto sid = trace.string_pool().Find(fn); sid.has_value()) {
      init_teardown_sids.insert(*sid);
    }
  }
  for (const std::string& fn : filter_.ignored_functions) {
    if (auto sid = trace.string_pool().Find(fn); sid.has_value()) {
      ignored_sids.insert(*sid);
    }
  }
  // Per-stack classification cache: 0 = unknown, 1 = clean, 2 = init/teardown,
  // 3 = ignored-function.
  std::vector<uint8_t> stack_class(trace.stack_count(), 0);
  auto classify_stack = [&](StackId stack) -> FilterReason {
    if (stack == kInvalidStack) {
      return FilterReason::kNone;
    }
    uint8_t& cached = stack_class[stack];
    if (cached == 0) {
      cached = 1;
      for (StringId frame : trace.Stack(stack).frames) {
        if (ignored_sids.count(frame) != 0) {
          cached = 3;
          break;
        }
        if (init_teardown_sids.count(frame) != 0) {
          cached = 2;
          break;
        }
      }
    }
    switch (cached) {
      case 2:
        return FilterReason::kInitTeardown;
      case 3:
        return FilterReason::kBlacklistedFn;
      default:
        return FilterReason::kNone;
    }
  };

  // --- Replay state. ---
  AllocationTracker tracker;
  LockResolver resolver(registry_, &tracker);
  Table& allocations = db->table(LockDocSchema::kAllocations);
  Table& locks = db->table(LockDocSchema::kLocks);
  Table& txns = db->table(LockDocSchema::kTxns);
  Table& txn_locks = db->table(LockDocSchema::kTxnLocks);
  Table& accesses = db->table(LockDocSchema::kAccesses);
  const size_t kAllocFreeSeqCol = allocations.ColumnIndex("free_seq");

  // Transaction reconstruction (Sec. 4.2): acquiring a lock starts a nested
  // transaction; releasing it resumes the *enclosing* transaction — the same
  // transaction id, because the set of held locks is the same again. Spans
  // with no locks held get their own (lock-free) transactions.
  struct TxnFrame {
    HeldLockState lock;
    uint64_t txn_id = kDbNull;
  };
  std::vector<TxnFrame> txn_stack;
  uint64_t base_txn = kDbNull;  // Current lock-free transaction.
  uint64_t current_txn = kDbNull;
  uint64_t locks_row_count = 0;
  const size_t kTxnEndSeqCol = txns.ColumnIndex("end_seq");

  // Creates a transaction row for the current stack contents (or the empty
  // set) starting at `seq`.
  auto new_txn = [&](uint64_t seq) {
    uint64_t id = txns.row_count();
    txns.Insert({id, seq, kDbNull, static_cast<uint64_t>(txn_stack.size())});
    for (size_t i = 0; i < txn_stack.size(); ++i) {
      txn_locks.Insert({id, static_cast<uint64_t>(i), txn_stack[i].lock.lock,
                        txn_stack[i].lock.acquire_seq,
                        static_cast<uint64_t>(txn_stack[i].lock.mode),
                        static_cast<uint64_t>(txn_stack[i].lock.acquire_file),
                        static_cast<uint64_t>(txn_stack[i].lock.acquire_line)});
      if (txn_stack[i].lock.has_range) {
        txn_lock_ranges->Insert({id, static_cast<uint64_t>(i), txn_stack[i].lock.range_start,
                                 txn_stack[i].lock.range_end});
      }
    }
    ++stats.txns;
    if (!txn_stack.empty()) {
      ++stats.locked_txns;
    }
    return id;
  };
  auto end_txn = [&](uint64_t id, uint64_t seq) {
    if (id != kDbNull) {
      // Every transaction is closed exactly once; a second close would
      // corrupt the end_seq the open-group eviction in ExtractObservations
      // relies on.
      LOCKDOC_CHECK(txns.GetUint64(id, kTxnEndSeqCol) == kDbNull);
      txns.SetUint64(id, kTxnEndSeqCol, seq);
    }
  };

  // The trace starts in a lock-free span.
  base_txn = new_txn(0);
  current_txn = base_txn;

  std::vector<StagedAccess> staged;
  staged.reserve(trace.size());
  const std::vector<TraceEvent>& events = trace.events();
  for (size_t event_index = 0; event_index < events.size(); ++event_index) {
    const TraceEvent& e = events[event_index];
    switch (e.kind) {
      case EventKind::kAlloc: {
        if (e.type == kInvalidTypeId || e.type >= registry_->type_count()) {
          // Only reachable with damaged traces: without a layout the
          // allocation cannot be interpreted, so it stays untracked and
          // its accesses fall into the untracked-memory filter bucket.
          ++stats.unknown_type_allocs;
          break;
        }
        std::optional<AllocationId> displaced;
        AllocationId id = tracker.OnAlloc(e, &displaced);
        LOCKDOC_CHECK(id == allocations.row_count());
        if (displaced.has_value()) {
          // The free event for the previous lifetime was lost (salvaged
          // trace): retire its row here, where the tracker retired it.
          allocations.SetUint64(*displaced, kAllocFreeSeqCol, e.seq);
          ++stats.realloc_overlaps;
        }
        allocations.Insert({id, static_cast<uint64_t>(e.type), static_cast<uint64_t>(e.subclass),
                            e.addr, static_cast<uint64_t>(e.size), e.seq, kDbNull});
        if (e.has_range) {
          // The object's ground-truth resource span (e.g. a vma's
          // [vm_start, vm_end)); overlap analysis matches held ranges
          // against it.
          alloc_ranges->Insert({id, e.range_start, e.range_end});
        }
        break;
      }
      case EventKind::kFree: {
        auto freed = tracker.OnFree(e);
        if (freed.has_value()) {
          allocations.SetUint64(*freed, kAllocFreeSeqCol, e.seq);
        }
        break;
      }
      case EventKind::kStaticLockDef:
        resolver.OnStaticLockDef(e);
        break;
      case EventKind::kLockAcquire: {
        LockInstanceId lock = resolver.Resolve(e);
        // Mirror new lock instances into the locks table as they appear.
        while (locks_row_count < resolver.instance_count()) {
          const LockInstance& inst = resolver.instance(locks_row_count);
          uint64_t owner_member_row = kDbNull;
          if (!inst.is_static) {
            owner_member_row = member_row[inst.owner_type][inst.owner_member];
          }
          locks.Insert({inst.id, inst.addr, static_cast<uint64_t>(inst.type),
                        static_cast<uint64_t>(inst.is_static ? 1 : 0),
                        static_cast<uint64_t>(inst.name),
                        inst.is_static ? kDbNull : inst.owner, owner_member_row});
          ++locks_row_count;
        }
        if (txn_stack.empty()) {
          // Leaving a lock-free span.
          end_txn(base_txn, e.seq);
          base_txn = kDbNull;
        }
        TxnFrame frame;
        frame.lock.lock = lock;
        frame.lock.acquire_seq = e.seq;
        frame.lock.mode = e.mode;
        frame.lock.acquire_file = e.loc.file;
        frame.lock.acquire_line = e.loc.line;
        frame.lock.has_range = e.has_range;
        frame.lock.range_start = e.range_start;
        frame.lock.range_end = e.range_end;
        txn_stack.push_back(frame);
        txn_stack.back().txn_id = new_txn(e.seq);
        current_txn = txn_stack.back().txn_id;
        break;
      }
      case EventKind::kLockRelease: {
        LockInstanceId lock = resolver.Resolve(e);
        // Find the frame holding this lock (innermost first); releases may
        // happen out of LIFO order. A range lock admits several simultaneous
        // holds of the same instance, so the release's span must match the
        // hold's span exactly.
        size_t frame_index = txn_stack.size();
        for (size_t i = txn_stack.size(); i > 0; --i) {
          const HeldLockState& held = txn_stack[i - 1].lock;
          if (held.lock != lock || held.has_range != e.has_range) {
            continue;
          }
          if (held.has_range &&
              (held.range_start != e.range_start || held.range_end != e.range_end)) {
            continue;
          }
          frame_index = i - 1;
          break;
        }
        if (frame_index == txn_stack.size()) {
          // Release of a lock that is not held: the acquire was lost to
          // corruption (or the trace is malformed). Dropping the event
          // keeps the held-set reconstruction consistent.
          ++stats.unmatched_releases;
          break;
        }
        if (frame_index == txn_stack.size() - 1) {
          // LIFO release: the enclosing transaction resumes under its
          // original id (the held set is the same again).
          end_txn(txn_stack.back().txn_id, e.seq);
          txn_stack.pop_back();
        } else {
          // Out-of-order release: every transaction nested above the
          // released lock had that lock in its set; their ids are stale, so
          // fresh transactions are minted for the reduced sets.
          for (size_t i = frame_index; i < txn_stack.size(); ++i) {
            end_txn(txn_stack[i].txn_id, e.seq);
          }
          txn_stack.erase(txn_stack.begin() + static_cast<ptrdiff_t>(frame_index));
          std::vector<TxnFrame> suffix(txn_stack.begin() + static_cast<ptrdiff_t>(frame_index),
                                       txn_stack.end());
          txn_stack.resize(frame_index);
          for (TxnFrame& frame : suffix) {
            txn_stack.push_back(frame);
            txn_stack.back().txn_id = new_txn(e.seq);
          }
        }
        if (txn_stack.empty()) {
          base_txn = new_txn(e.seq);
          current_txn = base_txn;
        } else {
          current_txn = txn_stack.back().txn_id;
        }
        break;
      }
      case EventKind::kMemRead:
      case EventKind::kMemWrite: {
        // The only replay-dependent facts about an access are which
        // allocation was live at its address and which transaction was
        // current; record them and defer the rest to the parallel phase.
        ++stats.accesses_total;
        std::optional<AllocationId> found = tracker.Find(e.addr);
        staged.push_back({static_cast<uint32_t>(event_index),
                          found.has_value() ? *found : kDbNull, current_txn});
        break;
      }
    }
  }

  // --- Parallel phase: member resolution + filter classification. ---
  // Each staged access fills its own row slot; rows land in event order, so
  // the table is identical to the sequential build at any thread count.
  {
    // classify_stack memoizes lazily; warm the whole cache up front so the
    // parallel workers only read it.
    for (StackId stack = 0; stack < trace.stack_count(); ++stack) {
      classify_stack(stack);
    }
    const size_t n = staged.size();
    std::vector<ColumnData> storage(accesses.column_count());
    for (ColumnData& column : storage) {
      column.u64.resize(n);
    }
    enum AccessColumn {
      kColSeq, kColAlloc, kColMember, kColType, kColSize, kColTxn,
      kColContext, kColTask, kColFile, kColLine, kColStack, kColReason,
    };
    std::vector<uint64_t> kept_per_chunk;
    std::mutex kept_mu;
    auto fill = [&](size_t begin, size_t end) {
      uint64_t kept = 0;
      for (size_t i = begin; i < end; ++i) {
        const StagedAccess& s = staged[i];
        const TraceEvent& e = events[s.event_index];
        FilterReason reason = FilterReason::kNone;
        uint64_t member_id = kDbNull;
        if (s.alloc_id == kDbNull) {
          reason = FilterReason::kUntrackedMemory;
        } else {
          const AllocationInfo& alloc = tracker.info(s.alloc_id);
          const TypeLayout& layout = registry_->layout(alloc.type);
          auto member = layout.ResolveOffset(static_cast<uint32_t>(e.addr - alloc.addr));
          if (!member.has_value()) {
            reason = FilterReason::kUntrackedMemory;
          } else {
            member_id = member_row[alloc.type][*member];
            const MemberDef& def = layout.member(*member);
            if (def.is_lock) {
              reason = FilterReason::kLockMember;
            } else if (def.is_atomic) {
              reason = FilterReason::kAtomicMember;
            } else if (def.blacklisted) {
              reason = FilterReason::kBlacklistedMember;
            } else {
              reason = classify_stack(e.stack);
            }
          }
        }
        if (reason == FilterReason::kNone) {
          ++kept;
        }
        storage[kColSeq].u64[i] = e.seq;
        storage[kColAlloc].u64[i] = s.alloc_id;
        storage[kColMember].u64[i] = member_id;
        storage[kColType].u64[i] = static_cast<uint64_t>(AccessTypeOf(e));
        storage[kColSize].u64[i] = static_cast<uint64_t>(e.size);
        storage[kColTxn].u64[i] = s.txn_id;
        storage[kColContext].u64[i] = static_cast<uint64_t>(e.context);
        storage[kColTask].u64[i] = static_cast<uint64_t>(e.task_id);
        storage[kColFile].u64[i] = static_cast<uint64_t>(e.loc.file);
        storage[kColLine].u64[i] = static_cast<uint64_t>(e.loc.line);
        storage[kColStack].u64[i] =
            e.stack == kInvalidStack ? kDbNull : static_cast<uint64_t>(e.stack);
        storage[kColReason].u64[i] = static_cast<uint64_t>(reason);
      }
      std::lock_guard<std::mutex> guard(kept_mu);
      kept_per_chunk.push_back(kept);
    };
    ParallelFor(pool, n, fill);
    for (uint64_t kept : kept_per_chunk) {
      stats.accesses_kept += kept;
    }
    stats.accesses_filtered = n - stats.accesses_kept;
    accesses.ResetRows(n, std::move(storage));
  }
  // Close everything still open. In a well-formed trace only the final
  // lock-free span remains; a truncated trace can end with locks held, and
  // their transactions are closed at the truncation point. `current_txn` is
  // always either `base_txn` or the innermost frame's transaction, so these
  // two paths close every open transaction exactly once.
  stats.dangling_locks_closed = txn_stack.size();
  for (const TxnFrame& frame : txn_stack) {
    end_txn(frame.txn_id, trace.size());
  }
  txn_stack.clear();
  end_txn(base_txn, trace.size());
  for (RowId txn = 0; txn < txns.row_count(); ++txn) {
    LOCKDOC_CHECK(txns.GetUint64(txn, kTxnEndSeqCol) != kDbNull);
  }

  // --- Stack frames table. ---
  Table& stack_frames = db->table(LockDocSchema::kStackFrames);
  for (StackId id = 0; id < trace.stack_count(); ++id) {
    const CallStack& stack = trace.Stack(id);
    for (size_t pos = 0; pos < stack.frames.size(); ++pos) {
      stack_frames.Insert({static_cast<uint64_t>(id), static_cast<uint64_t>(pos),
                           static_cast<uint64_t>(stack.frames[pos])});
    }
  }

  stats.lock_instances = resolver.instance_count();
  stats.allocations = tracker.allocation_count();
  stats.live_allocations_at_end = tracker.live_count();
  stats.unresolved_lock_ops = resolver.unresolved_count();
  return stats;
}

}  // namespace lockdoc
