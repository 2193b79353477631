#include <gtest/gtest.h>

#include "decision_context_test_helper.hpp"
#include "sim/constraint_checker.hpp"
#include "sim/feedback.hpp"

namespace rs = reasched::sim;
using reasched::testing::CtxFixture;
using reasched::testing::make_job;

TEST(ConstraintChecker, AcceptsFeasibleStart) {
  CtxFixture f;
  f.waiting.push_back(make_job(1, 10, 100, 60));
  const rs::ConstraintChecker checker;
  EXPECT_TRUE(checker.check(rs::Action::start(1), f.ctx()).ok());
  EXPECT_TRUE(checker.check(rs::Action::backfill(1), f.ctx()).ok());
}

TEST(ConstraintChecker, DelayAlwaysLegal) {
  CtxFixture f;
  const rs::ConstraintChecker checker;
  EXPECT_TRUE(checker.check(rs::Action::delay(), f.ctx()).ok());
  f.waiting.push_back(make_job(1, 10, 100, 60));
  EXPECT_TRUE(checker.check(rs::Action::delay(), f.ctx()).ok());
}

TEST(ConstraintChecker, RejectsUnknownJob) {
  CtxFixture f;
  const rs::ConstraintChecker checker;
  const auto v = checker.check(rs::Action::start(99), f.ctx());
  EXPECT_EQ(v.code, rs::ViolationCode::kUnknownJob);
  EXPECT_NE(v.detail.find("99"), std::string::npos);
}

TEST(ConstraintChecker, RejectsAlreadyRunning) {
  CtxFixture f;
  f.cluster.allocate(make_job(5, 4, 8, 100), 0.0);
  const rs::ConstraintChecker checker;
  const auto v = checker.check(rs::Action::start(5), f.ctx());
  EXPECT_EQ(v.code, rs::ViolationCode::kAlreadyRunning);
}

TEST(ConstraintChecker, RejectsInsufficientNodesWithPaperStyleMessage) {
  CtxFixture f;
  f.cluster.allocate(make_job(7, 18, 1472, 100), 0.0);  // leaves 238 nodes, 576 GB
  f.waiting.push_back(make_job(32, 256, 8, 147));
  const rs::ConstraintChecker checker;
  const auto v = checker.check(rs::Action::start(32), f.ctx(1554.0));
  EXPECT_EQ(v.code, rs::ViolationCode::kInsufficientNodes);
  // The paper's exact feedback shape (Figure 2).
  EXPECT_NE(v.detail.find("requires 256 Nodes, 8 GB"), std::string::npos);
  EXPECT_NE(v.detail.find("available: 238 Nodes, 576 GB"), std::string::npos);

  const std::string fb = rs::render_feedback(1554.0, rs::Action::start(32), v);
  EXPECT_NE(fb.find("[t=1554] Action: StartJob failed (not enough resources)"),
            std::string::npos);
  EXPECT_NE(fb.find("Feedback: Job 32 cannot be started"), std::string::npos);
}

TEST(ConstraintChecker, RejectsInsufficientMemory) {
  CtxFixture f;
  f.cluster.allocate(make_job(1, 4, 2000, 100), 0.0);
  f.waiting.push_back(make_job(2, 4, 100, 60));
  const rs::ConstraintChecker checker;
  const auto v = checker.check(rs::Action::start(2), f.ctx());
  EXPECT_EQ(v.code, rs::ViolationCode::kInsufficientMemory);
}

TEST(ConstraintChecker, RejectsDependencyUnmet) {
  CtxFixture f;
  auto dependent = make_job(3, 1, 1, 10);
  dependent.dependencies = {1};
  f.ineligible.push_back(dependent);
  const rs::ConstraintChecker checker;
  const auto v = checker.check(rs::Action::start(3), f.ctx());
  EXPECT_EQ(v.code, rs::ViolationCode::kDependencyUnmet);
}

TEST(ConstraintChecker, StopLegalOnlyWhenDone) {
  CtxFixture f;
  const rs::ConstraintChecker checker;
  EXPECT_TRUE(checker.check(rs::Action::stop(), f.ctx()).ok());

  f.arrivals_pending = true;
  EXPECT_EQ(checker.check(rs::Action::stop(), f.ctx()).code,
            rs::ViolationCode::kPrematureStop);

  f.arrivals_pending = false;
  f.waiting.push_back(make_job(1, 1, 1, 10));
  EXPECT_EQ(checker.check(rs::Action::stop(), f.ctx()).code,
            rs::ViolationCode::kPrematureStop);
}

TEST(ConstraintChecker, StopLegalWhileJobsStillRunning) {
  // Figure 2: the agent stops at t=9997 while Job 46 is still running -
  // Stop requires all jobs *scheduled*, not completed.
  CtxFixture f;
  f.cluster.allocate(make_job(46, 256, 128, 20000), 0.0);
  const rs::ConstraintChecker checker;
  EXPECT_TRUE(checker.check(rs::Action::stop(), f.ctx(9997.0)).ok());
}

TEST(Feedback, FailureLabels) {
  EXPECT_STREQ(rs::failure_label(rs::ViolationCode::kInsufficientNodes).c_str(),
               "not enough resources");
  EXPECT_STREQ(rs::failure_label(rs::ViolationCode::kInsufficientMemory).c_str(),
               "not enough resources");
  EXPECT_STREQ(rs::failure_label(rs::ViolationCode::kPrematureStop).c_str(),
               "jobs still pending");
}

TEST(ViolationCode, Names) {
  EXPECT_STREQ(rs::to_string(rs::ViolationCode::kNone), "none");
  EXPECT_STREQ(rs::to_string(rs::ViolationCode::kUnknownJob), "unknown-job");
  EXPECT_STREQ(rs::to_string(rs::ViolationCode::kDependencyUnmet), "dependency-unmet");
}
