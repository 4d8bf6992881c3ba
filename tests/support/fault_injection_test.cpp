// FAIRCHAIN_FAULT parsing and trigger semantics.  The lethal actions
// (kill, exit) are exercised in forked children — the test process itself
// must survive its own fault experiments.

#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "support/fault_injection.hpp"

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace fairchain {
namespace {

TEST(FaultSpecTest, ParsesEveryAction) {
  const FaultSpec kill = ParseFaultSpec("shard-chunk:1:2:kill");
  EXPECT_EQ(kill.site, "shard-chunk");
  EXPECT_EQ(kill.index, 1u);
  EXPECT_EQ(kill.nth, 2u);
  EXPECT_EQ(kill.action, FaultSpec::Action::kKill);

  const FaultSpec exit_spec = ParseFaultSpec("store-commit:0:3:exit=7");
  EXPECT_EQ(exit_spec.action, FaultSpec::Action::kExit);
  EXPECT_EQ(exit_spec.argument, 7u);

  const FaultSpec stall = ParseFaultSpec("shard-message:4:1:stall=250");
  EXPECT_EQ(stall.action, FaultSpec::Action::kStall);
  EXPECT_EQ(stall.argument, 250u);

  const FaultSpec throw_spec = ParseFaultSpec("pool-task:0:1:throw");
  EXPECT_EQ(throw_spec.action, FaultSpec::Action::kThrow);
}

TEST(FaultSpecTest, RejectsMalformedTriggers) {
  EXPECT_THROW(ParseFaultSpec(""), std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:1:2"), std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:1:2:kill:extra"),
               std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:x:2:kill"),
               std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:1:y:kill"),
               std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:1:2:explode"),
               std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:1:2:exit="),
               std::invalid_argument);
  EXPECT_THROW(ParseFaultSpec("shard-chunk:1:2:stall=fast"),
               std::invalid_argument);
}

TEST(FaultSpecTest, MatchesExactlyOneSiteIndexAndCount) {
  const FaultSpec spec = ParseFaultSpec("shard-chunk:1:2:kill");
  EXPECT_TRUE(spec.Matches("shard-chunk", 1, 2));
  EXPECT_FALSE(spec.Matches("shard-chunk", 1, 1));  // not yet
  EXPECT_FALSE(spec.Matches("shard-chunk", 1, 3));  // fires once, not >=
  EXPECT_FALSE(spec.Matches("shard-chunk", 0, 2));  // other shard
  EXPECT_FALSE(spec.Matches("store-commit", 1, 2));  // other site
}

class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { unsetenv("FAIRCHAIN_FAULT"); }
  void TearDown() override { unsetenv("FAIRCHAIN_FAULT"); }
};

TEST_F(FaultEnvTest, ActiveFaultReReadsTheEnvironment) {
  EXPECT_FALSE(ActiveFault().has_value());
  setenv("FAIRCHAIN_FAULT", "store-commit:0:1:stall=1", 1);
  ASSERT_TRUE(ActiveFault().has_value());
  EXPECT_EQ(ActiveFault()->site, "store-commit");
  unsetenv("FAIRCHAIN_FAULT");
  EXPECT_FALSE(ActiveFault().has_value());
}

TEST_F(FaultEnvTest, MalformedEnvironmentThrowsInsteadOfIgnoring) {
  setenv("FAIRCHAIN_FAULT", "not-a-trigger", 1);
  EXPECT_THROW(ActiveFault(), std::invalid_argument);
  EXPECT_THROW(MaybeInjectFault("any-site", 0, 1), std::invalid_argument);
}

TEST_F(FaultEnvTest, NonMatchingInjectionIsANoOp) {
  setenv("FAIRCHAIN_FAULT", "shard-chunk:1:2:kill", 1);
  MaybeInjectFault("shard-chunk", 1, 1);   // wrong count
  MaybeInjectFault("shard-chunk", 0, 2);   // wrong index
  MaybeInjectFault("store-commit", 1, 2);  // wrong site
  SUCCEED();  // still alive
}

TEST_F(FaultEnvTest, StallActionDelaysAndContinues) {
  setenv("FAIRCHAIN_FAULT", "unit-test-site:3:1:stall=10", 1);
  MaybeInjectFault("unit-test-site", 3, 1);
  SUCCEED();  // slept ~10ms, then returned
}

TEST_F(FaultEnvTest, ThrowActionRaisesARuntimeErrorNamingTheTrigger) {
  setenv("FAIRCHAIN_FAULT", "unit-test-site:2:3:throw", 1);
  MaybeInjectFault("unit-test-site", 2, 2);  // not yet
  try {
    MaybeInjectFault("unit-test-site", 2, 3);
    FAIL() << "the throw action did not fire";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("unit-test-site:2:3"),
              std::string::npos)
        << error.what();
  }
}

#ifndef _WIN32

TEST_F(FaultEnvTest, KillActionDeliversSigkill) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("FAIRCHAIN_FAULT", "unit-test-site:0:1:kill", 1);
    MaybeInjectFault("unit-test-site", 0, 1);
    _exit(42);  // unreachable if the fault fired
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST_F(FaultEnvTest, ExitActionDiesWithTheGivenCode) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    setenv("FAIRCHAIN_FAULT", "unit-test-site:0:1:exit=7", 1);
    MaybeInjectFault("unit-test-site", 0, 1);
    _exit(42);  // unreachable if the fault fired
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);
}

#endif  // _WIN32

}  // namespace
}  // namespace fairchain
