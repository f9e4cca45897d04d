// Shared helpers for the core-analysis tests: a tiny two-object world with
// embedded and global locks, driven through the real SimKernel so traces are
// well-formed by construction.
#ifndef TESTS_CORE_TEST_HELPERS_H_
#define TESTS_CORE_TEST_HELPERS_H_

#include <memory>

#include "src/core/importer.h"
#include "src/core/observations.h"
#include "src/core/pipeline.h"
#include "src/db/database.h"
#include "src/sim/kernel.h"

namespace lockdoc {

struct TestWorld {
  std::unique_ptr<TypeRegistry> registry;
  Trace trace;
  std::unique_ptr<SimKernel> sim;

  TypeId type = kInvalidTypeId;
  MemberIndex data = kInvalidMember;     // Plain member.
  MemberIndex extra = kInvalidMember;    // Second plain member.
  MemberIndex atomic = kInvalidMember;   // atomic_t member.
  MemberIndex banned = kInvalidMember;   // Blacklisted member.
  MemberIndex spin = kInvalidMember;     // Embedded spinlock.
  MemberIndex mutex = kInvalidMember;    // Embedded mutex.
  GlobalLock global_a;
  GlobalLock global_b;

  TestWorld() {
    registry = std::make_unique<TypeRegistry>();
    auto layout = std::make_unique<TypeLayout>("widget");
    data = layout->AddMember("data", 8);
    extra = layout->AddMember("extra", 8);
    atomic = layout->AddAtomicMember("refs", 4);
    banned = layout->AddBlacklistedMember("foreign", 8);
    spin = layout->AddLockMember("w_lock", LockType::kSpinlock);
    mutex = layout->AddLockMember("w_mutex", LockType::kMutex);
    type = registry->Register(std::move(layout));
    sim = std::make_unique<SimKernel>(&trace, registry.get());
    global_a = sim->DefineStaticLock("global_a", LockType::kSpinlock);
    global_b = sim->DefineStaticLock("global_b", LockType::kMutex);
  }

  // Imports the recorded trace.
  ImportStats Import(Database* db, FilterConfig filter = FilterConfig::Defaults()) {
    TraceImporter importer(registry.get(), std::move(filter));
    return importer.Import(trace, db);
  }

  // Full import + observation extraction.
  ObservationStore Extract(FilterConfig filter = FilterConfig::Defaults()) {
    Database db;
    Import(&db, std::move(filter));
    return ExtractObservations(db, *registry);
  }

  // Full import + observation extraction into a snapshot, for analyzers
  // that run on an AnalysisContext.
  AnalysisSnapshot Snapshot(FilterConfig filter = FilterConfig::Defaults()) {
    AnalysisSnapshot snapshot;
    snapshot.import_stats = Import(&snapshot.db, std::move(filter));
    snapshot.observations = ExtractObservations(snapshot.db, *registry);
    return snapshot;
  }

  MemberObsKey Key(MemberIndex member) const {
    MemberObsKey key;
    key.type = type;
    key.subclass = kNoSubclass;
    key.member = member;
    return key;
  }
};

}  // namespace lockdoc

#endif  // TESTS_CORE_TEST_HELPERS_H_
