// The simulated kernel's layouts must match the paper's Tab. 6 member
// population exactly (#M and #Bl columns).
#include "src/vfs/types.h"

#include <ostream>

#include <gtest/gtest.h>

namespace lockdoc {
namespace {

struct TypeExpectation {
  const char* name;
  size_t members;   // Paper #M.
  size_t filtered;  // Paper #Bl (locks + atomics + blacklisted).
};

// Without this, gtest prints the param as its raw bytes, pointer included,
// and the registered test names change whenever the name literal moves.
void PrintTo(const TypeExpectation& e, std::ostream* out) {
  *out << e.name << " (#M " << e.members << ", #Bl " << e.filtered << ")";
}

class Tab6LayoutTest : public ::testing::TestWithParam<TypeExpectation> {};

TEST_P(Tab6LayoutTest, MemberAndFilteredCountsMatchPaper) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  auto type = registry->FindType(GetParam().name);
  ASSERT_TRUE(type.has_value()) << GetParam().name;
  const TypeLayout& layout = registry->layout(*type);
  EXPECT_EQ(layout.member_count(), GetParam().members);
  size_t filtered = 0;
  for (const MemberDef& def : layout.members()) {
    if (def.is_lock || def.is_atomic || def.blacklisted) {
      ++filtered;
    }
  }
  EXPECT_EQ(filtered, GetParam().filtered);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable6, Tab6LayoutTest,
    ::testing::Values(TypeExpectation{"backing_dev_info", 43, 2},
                      TypeExpectation{"block_device", 21, 2},
                      TypeExpectation{"buffer_head", 13, 0}, TypeExpectation{"cdev", 6, 0},
                      TypeExpectation{"dentry", 21, 1}, TypeExpectation{"inode", 65, 5},
                      TypeExpectation{"journal_head", 15, 0},
                      TypeExpectation{"journal_t", 58, 11},
                      TypeExpectation{"pipe_inode_info", 16, 1},
                      TypeExpectation{"super_block", 56, 3},
                      TypeExpectation{"transaction_t", 27, 1}),
    [](const ::testing::TestParamInfo<TypeExpectation>& info) {
      return std::string(info.param.name);
    });

TEST(VfsTypesTest, ElevenTypesRegistered) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  EXPECT_EQ(registry->type_count(), 11u);
}

TEST(VfsTypesTest, ElevenInodeSubclasses) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  EXPECT_EQ(registry->SubclassesOf(ids.inode).size(), 11u);
  EXPECT_EQ(ids.all_filesystems.size(), 11u);
  EXPECT_EQ(registry->QualifiedName(ids.inode, ids.fs_ext4), "inode:ext4");
  EXPECT_EQ(registry->QualifiedName(ids.inode, ids.fs_anon_inodefs), "inode:anon_inodefs");
}

TEST(VfsTypesTest, KeyLockMembersExist) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  struct LockSpec {
    TypeId type;
    const char* member;
    LockType lock_type;
  };
  for (const auto& [type, member, lock_type] :
       std::initializer_list<LockSpec>{{ids.inode, "i_lock", LockType::kSpinlock},
                                       {ids.inode, "i_rwsem", LockType::kRwSemaphore},
                                       {ids.dentry, "d_lock", LockType::kSpinlock},
                                       {ids.journal, "j_state_lock", LockType::kRwlock},
                                       {ids.journal, "j_list_lock", LockType::kSpinlock},
                                       {ids.journal, "j_checkpoint_mutex", LockType::kMutex},
                                       {ids.pipe, "mutex", LockType::kMutex},
                                       {ids.block_device, "bd_mutex", LockType::kMutex},
                                       {ids.bdi, "wb.list_lock", LockType::kSpinlock}}) {
    const TypeLayout& layout = registry->layout(type);
    auto index = layout.FindMember(member);
    ASSERT_TRUE(index.has_value()) << member;
    EXPECT_TRUE(layout.member(*index).is_lock) << member;
    EXPECT_EQ(layout.member(*index).lock_type, lock_type) << member;
  }
}

TEST(VfsTypesTest, UnionsAreUnrolled) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  const TypeLayout& inode = registry->layout(ids.inode);
  // The i_pipe/i_bdev/i_cdev/i_link union alternatives have distinct offsets.
  auto pipe = inode.FindMember("i_pipe");
  auto bdev = inode.FindMember("i_bdev");
  auto cdev = inode.FindMember("i_cdev");
  auto link = inode.FindMember("i_link");
  ASSERT_TRUE(pipe && bdev && cdev && link);
  EXPECT_NE(inode.member(*pipe).offset, inode.member(*bdev).offset);
  EXPECT_NE(inode.member(*bdev).offset, inode.member(*cdev).offset);
  EXPECT_NE(inode.member(*cdev).offset, inode.member(*link).offset);
}

TEST(VfsTypesTest, MLookupHelperChecks) {
  VfsIds ids;
  std::unique_ptr<TypeRegistry> registry = BuildVfsRegistry(&ids);
  EXPECT_EQ(M(*registry, ids.inode, "i_state"),
            *registry->layout(ids.inode).FindMember("i_state"));
}

}  // namespace
}  // namespace lockdoc
