// Tests for consistency guarantees and SLA structures.

#include <gtest/gtest.h>

#include "src/core/consistency.h"
#include "src/core/sla.h"

namespace pileus::core {
namespace {

TEST(GuaranteeTest, FactoryMethodsSetConsistency) {
  EXPECT_EQ(Guarantee::Strong().consistency, Consistency::kStrong);
  EXPECT_EQ(Guarantee::Causal().consistency, Consistency::kCausal);
  EXPECT_EQ(Guarantee::ReadMyWrites().consistency,
            Consistency::kReadMyWrites);
  EXPECT_EQ(Guarantee::Monotonic().consistency, Consistency::kMonotonic);
  EXPECT_EQ(Guarantee::Eventual().consistency, Consistency::kEventual);
  EXPECT_EQ(Guarantee::BoundedSeconds(30).bound_us,
            SecondsToMicroseconds(30));
}

TEST(GuaranteeTest, OnlyStrongRequiresAuthoritative) {
  EXPECT_TRUE(Guarantee::Strong().RequiresAuthoritative());
  EXPECT_FALSE(Guarantee::Causal().RequiresAuthoritative());
  EXPECT_FALSE(Guarantee::BoundedSeconds(1).RequiresAuthoritative());
  EXPECT_FALSE(Guarantee::ReadMyWrites().RequiresAuthoritative());
  EXPECT_FALSE(Guarantee::Monotonic().RequiresAuthoritative());
  EXPECT_FALSE(Guarantee::Eventual().RequiresAuthoritative());
}

TEST(GuaranteeTest, ToStringFormats) {
  EXPECT_EQ(Guarantee::Strong().ToString(), "strong");
  EXPECT_EQ(Guarantee::BoundedSeconds(30).ToString(), "bounded(30s)");
  EXPECT_EQ(Guarantee::ReadMyWrites().ToString(), "read-my-writes");
}

TEST(GuaranteeTest, AllConsistenciesHaveNames) {
  for (int c = 0; c <= static_cast<int>(Consistency::kEventual); ++c) {
    EXPECT_NE(ConsistencyName(static_cast<Consistency>(c)), "unknown");
  }
}

TEST(SlaTest, FluentConstruction) {
  const Sla sla = Sla()
                      .Add(Guarantee::Strong(), 1000, 1.0)
                      .Add(Guarantee::Eventual(), 2000, 0.5);
  EXPECT_EQ(sla.size(), 2u);
  EXPECT_EQ(sla[0].consistency, Guarantee::Strong());
  EXPECT_EQ(sla[1].utility, 0.5);
}

TEST(SlaTest, MaxLatencyIsLargestTarget) {
  const Sla sla = Sla()
                      .Add(Guarantee::Strong(), 150, 1.0)
                      .Add(Guarantee::Eventual(), 100, 0.5)
                      .Add(Guarantee::Strong(), 1000, 0.25);
  EXPECT_EQ(sla.MaxLatency(), 1000);
}

// Parameterized validation cases.
struct ValidationCase {
  const char* name;
  Sla sla;
  bool valid;
};

// Without a printer gtest lists the parameter as a raw byte dump, which holds
// heap and string addresses and so renames every case on each build.
void PrintTo(const ValidationCase& c, std::ostream* os) { *os << c.name; }

class SlaValidation : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(SlaValidation, Validates) {
  EXPECT_EQ(GetParam().sla.Validate().ok(), GetParam().valid)
      << GetParam().sla.ToString() << " -> "
      << GetParam().sla.Validate().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SlaValidation,
    ::testing::Values(
        ValidationCase{"empty", Sla(), false},
        ValidationCase{"single",
                       Sla().Add(Guarantee::Eventual(), 1000, 1.0), true},
        ValidationCase{"zero_latency",
                       Sla().Add(Guarantee::Eventual(), 0, 1.0), false},
        ValidationCase{"negative_utility",
                       Sla().Add(Guarantee::Eventual(), 1000, -0.5), false},
        ValidationCase{"zero_utility_ok",
                       Sla().Add(Guarantee::Eventual(), 1000, 0.0), true},
        ValidationCase{"increasing_utility_rejected",
                       Sla()
                           .Add(Guarantee::Strong(), 1000, 0.5)
                           .Add(Guarantee::Eventual(), 1000, 1.0),
                       false},
        ValidationCase{"equal_utilities_ok",
                       Sla()
                           .Add(Guarantee::Strong(), 1000, 1.0)
                           .Add(Guarantee::Eventual(), 1000, 1.0),
                       true},
        ValidationCase{"bounded_without_bound",
                       Sla().Add(Guarantee::Bounded(0), 1000, 1.0), false},
        ValidationCase{"bounded_with_bound",
                       Sla().Add(Guarantee::BoundedSeconds(10), 1000, 1.0),
                       true}),
    [](const ::testing::TestParamInfo<ValidationCase>& param_info) {
      return param_info.param.name;
    });

TEST(SlaTest, BuiltInSlasAreValid) {
  EXPECT_TRUE(ShoppingCartSla().Validate().ok());
  EXPECT_TRUE(WebApplicationSla().Validate().ok());
  EXPECT_TRUE(PasswordCheckingSla().Validate().ok());
}

TEST(SlaTest, ShoppingCartMatchesPaperFigure4) {
  const Sla sla = ShoppingCartSla();
  ASSERT_EQ(sla.size(), 2u);
  EXPECT_EQ(sla[0].consistency, Guarantee::ReadMyWrites());
  EXPECT_EQ(sla[0].latency_us, MillisecondsToMicroseconds(300));
  EXPECT_DOUBLE_EQ(sla[0].utility, 1.0);
  EXPECT_EQ(sla[1].consistency, Guarantee::Eventual());
  EXPECT_DOUBLE_EQ(sla[1].utility, 0.5);
}

TEST(SlaTest, PasswordCheckingMatchesPaperFigure6) {
  const Sla sla = PasswordCheckingSla();
  ASSERT_EQ(sla.size(), 3u);
  EXPECT_EQ(sla[0].consistency, Guarantee::Strong());
  EXPECT_EQ(sla[1].consistency, Guarantee::Eventual());
  EXPECT_EQ(sla[2].consistency, Guarantee::Strong());
  EXPECT_EQ(sla[2].latency_us, SecondsToMicroseconds(1));
  EXPECT_DOUBLE_EQ(sla[2].utility, 0.25);
}

TEST(SlaTest, WebApplicationMatchesPaperFigure5) {
  const Sla sla = WebApplicationSla();
  ASSERT_EQ(sla.size(), 4u);
  for (const SubSla& sub : sla.subslas()) {
    EXPECT_EQ(sub.consistency.consistency, Consistency::kBounded);
    EXPECT_EQ(sub.consistency.bound_us, SecondsToMicroseconds(300));
  }
  EXPECT_DOUBLE_EQ(sla[3].utility, 0.0);
}

TEST(SlaTest, MaxAvailabilityTailValidatesAsFinalSubSla) {
  Sla sla = ShoppingCartSla();
  const SubSla tail = MaxAvailabilitySubSla();
  sla.Add(tail.consistency, tail.latency_us, tail.utility);
  EXPECT_TRUE(sla.Validate().ok());
  EXPECT_EQ(sla.MaxLatency(), SecondsToMicroseconds(3600));
}

TEST(SlaTest, ToStringListsSubSlas) {
  const std::string text = PasswordCheckingSla().ToString();
  EXPECT_NE(text.find("strong"), std::string::npos);
  EXPECT_NE(text.find("eventual"), std::string::npos);
  EXPECT_NE(text.find("u=0.25"), std::string::npos);
}

}  // namespace
}  // namespace pileus::core
