// HeldLockIds against ClassifyHeldLocks: every observation group's held
// locks come out as the same classes (as pool ids) and modes, in the same
// order, whatever the row order of the txn_locks table.
#include "src/core/held_locks.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/db/schema.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

namespace lockdoc {
namespace {

using HeldIds = std::vector<std::pair<LockId, AcquireMode>>;

// Compares both readings for every group; returns how many shared holds
// were seen, so callers can check the input exercises modes.
size_t ExpectIdsMatchClassified(const AnalysisSnapshot& snapshot, const TypeRegistry& registry) {
  const LockClassPool& pool = snapshot.observations.pool();
  const HeldLockIds ids = HeldLockIds::Build(snapshot.db, registry, pool);
  size_t shared = 0;
  size_t groups = 0;
  for (const auto& [key, list] : snapshot.observations.groups()) {
    for (const ObservationGroup& group : list) {
      HeldIds expected;
      for (const HeldLockInfo& info :
           ClassifyHeldLocks(snapshot.db, registry, group.txn_id, group.alloc_id)) {
        expected.emplace_back(pool.Find(info.lock_class).value_or(HeldLockIds::kUninterned),
                              info.mode);
        shared += info.mode == AcquireMode::kShared ? 1 : 0;
      }
      HeldIds actual;
      ids.ForEachHeld(group.txn_id, group.alloc_id,
                      [&](LockId id, AcquireMode mode) { actual.emplace_back(id, mode); });
      EXPECT_EQ(actual, expected) << "txn " << group.txn_id << " alloc " << group.alloc_id;
      ++groups;
    }
  }
  EXPECT_GT(groups, 0u);
  return shared;
}

// Rewrites `table` with its rows in reverse order.
void ReverseRows(Table& table) {
  std::vector<ColumnData> storage(table.column_count());
  for (size_t c = 0; c < table.column_count(); ++c) {
    const uint64_t* data = table.ColumnU64Data(c);
    storage[c].u64.assign(std::make_reverse_iterator(data + table.row_count()),
                          std::make_reverse_iterator(data));
  }
  table.ResetRows(table.row_count(), std::move(storage));
}

// The vfs input has reader/writer semaphores held shared; the mm input
// adds range holds that extraction drops from a group's sequence but the
// held list keeps.
void CheckInput(SimulationResult sim, bool reversed) {
  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  AnalysisSnapshot snapshot = BuildSnapshot(sim.trace, *sim.registry, options);
  if (reversed) {
    ReverseRows(snapshot.db.table(LockDocSchema::kTxnLocks));
  }
  EXPECT_GT(ExpectIdsMatchClassified(snapshot, *sim.registry), 0u);
}

class HeldLockIdsTest : public ::testing::TestWithParam<bool> {};

TEST_P(HeldLockIdsTest, MatchesClassifiedHeldLocksInAnyRowOrder) {
  MixOptions mix;
  mix.ops = 1500;
  mix.seed = 3;
  CheckInput(SimulateKernelRun(mix, FaultPlan{}), GetParam());
  CheckInput(SimulateMmRun(mix, FaultPlan{}), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RowOrder, HeldLockIdsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Reversed" : "AsImported";
                         });

}  // namespace
}  // namespace lockdoc
