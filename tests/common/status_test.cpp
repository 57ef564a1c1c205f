#include "common/status.hpp"

#include <gtest/gtest.h>

namespace easched::common {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, FactoryFunctionsCarryCodeAndMessage) {
  EXPECT_EQ(Status::infeasible("x").code(), StatusCode::kInfeasible);
  EXPECT_EQ(Status::invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::not_converged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::infeasible("deadline too tight").message(), "deadline too tight");
}

TEST(Status, JobLifecycleCodes) {
  const Status cancelled = Status::cancelled("caller gave up");
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.to_string(), "CANCELLED: caller gave up");
  const Status late = Status::deadline_exceeded("queued too long");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.to_string(), "DEADLINE_EXCEEDED: queued too long");
}

TEST(Status, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::infeasible("msg").to_string(), "INFEASIBLE: msg");
}

TEST(Status, BoolConversion) {
  EXPECT_TRUE(static_cast<bool>(Status::ok()));
  EXPECT_FALSE(static_cast<bool>(Status::invalid("bad")));
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r(Status::infeasible("nope"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ValueOnErrorThrows) {
  Result<int> r(Status::invalid("bad"));
  EXPECT_THROW(r.value(), std::logic_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).take();
  EXPECT_EQ(s, "hello");
}

TEST(Result, OkStatusWithoutValueBecomesInternalError) {
  Result<int> r(Status::ok());
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(EASCHED_CHECK(1 == 2), std::logic_error);
  EXPECT_NO_THROW(EASCHED_CHECK(1 == 1));
  EXPECT_THROW(EASCHED_CHECK_MSG(false, "context"), std::logic_error);
}

TEST(Check, MessageNamesExpressionAndContext) {
  try {
    EASCHED_CHECK_MSG(2 + 2 == 5, "arithmetic is broken");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos);
    // The text reaches daemon peers and CLI users: no source path in it.
    EXPECT_EQ(what.find("status_test.cpp"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace easched::common
