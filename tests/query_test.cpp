// Tests for the query language: values/operators, the paper's exact
// signature/identifier example, composite decomposition, and the wire
// round-trip.
#include <gtest/gtest.h>

#include "query/parser.hpp"
#include "query/query.hpp"
#include "query/value.hpp"

namespace actyp::query {
namespace {

// The paper's §5.1 sample query, verbatim.
constexpr const char* kPaperQuery =
    "punch.rsrc.arch = sun\n"
    "punch.rsrc.memory = >=10\n"
    "punch.rsrc.license = tsuprem4\n"
    "punch.rsrc.domain = purdue\n"
    "punch.appl.expectedcpuuse = 1000\n"
    "punch.user.login = kapadia\n"
    "punch.user.accessgroup = ece\n";

// --- values and operators ---

TEST(Value, NumericDetection) {
  EXPECT_TRUE(Value("10").is_numeric());
  EXPECT_TRUE(Value("2.5").is_numeric());
  EXPECT_FALSE(Value("sun").is_numeric());
  EXPECT_FALSE(Value("10MB").is_numeric());
}

TEST(Value, NumericComparisonBeatsLexicographic) {
  // Lexicographically "9" > "10"; numerically 9 < 10.
  EXPECT_LT(Value("9").Compare(Value("10")), 0);
  EXPECT_EQ(Value("10").Compare(Value("10.0")), 0);
}

TEST(Value, StringComparisonCaseInsensitive) {
  EXPECT_EQ(Value("SUN").Compare(Value("sun")), 0);
  EXPECT_LT(Value("hp").Compare(Value("sun")), 0);
}

struct CmpCase {
  const char* lhs;
  CmpOp op;
  const char* rhs;
  bool expect;
};

class EvalCmpTest : public ::testing::TestWithParam<CmpCase> {};

TEST_P(EvalCmpTest, Evaluates) {
  const auto& c = GetParam();
  EXPECT_EQ(EvalCmp(Value(c.lhs), c.op, Value(c.rhs)), c.expect)
      << c.lhs << " " << CmpOpSpelling(c.op) << " " << c.rhs;
}

INSTANTIATE_TEST_SUITE_P(
    Operators, EvalCmpTest,
    ::testing::Values(
        CmpCase{"10", CmpOp::kEq, "10", true},
        CmpCase{"10", CmpOp::kEq, "11", false},
        CmpCase{"sun", CmpOp::kEq, "SUN", true},
        CmpCase{"10", CmpOp::kNe, "11", true},
        CmpCase{"512", CmpOp::kGe, "10", true},
        CmpCase{"8", CmpOp::kGe, "10", false},
        CmpCase{"10", CmpOp::kGe, "10", true},
        CmpCase{"8", CmpOp::kLe, "10", true},
        CmpCase{"11", CmpOp::kLe, "10", false},
        CmpCase{"11", CmpOp::kGt, "10", true},
        CmpCase{"10", CmpOp::kGt, "10", false},
        CmpCase{"9", CmpOp::kLt, "10", true},
        CmpCase{"sparc-ultra-5", CmpOp::kGlob, "sparc*", true},
        CmpCase{"hp9000", CmpOp::kGlob, "sparc*", false}));

TEST(CmpOp, SpellingRoundTrip) {
  for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kGe, CmpOp::kLe, CmpOp::kGt,
                   CmpOp::kLt, CmpOp::kGlob}) {
    auto parsed = ParseCmpOp(CmpOpSpelling(op));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, op);
  }
  EXPECT_EQ(ParseCmpOp("="), CmpOp::kEq);
  EXPECT_FALSE(ParseCmpOp("~=").has_value());
}

// --- parsing ---

TEST(Parser, ParsesPaperQuery) {
  auto q = Parser::ParseBasic(kPaperQuery);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->family(), "punch");
  EXPECT_EQ(q->rsrc().size(), 4u);
  EXPECT_EQ(q->GetRsrc("arch")->value.text(), "sun");
  EXPECT_EQ(q->GetRsrc("memory")->op, CmpOp::kGe);
  EXPECT_EQ(q->GetRsrc("memory")->value.text(), "10");
  EXPECT_EQ(q->GetAppl("expectedcpuuse"), "1000");
  EXPECT_EQ(q->GetUser("login"), "kapadia");
  EXPECT_EQ(q->GetUser("accessgroup"), "ece");
}

TEST(Parser, PaperSignatureAndIdentifier) {
  auto q = Parser::ParseBasic(kPaperQuery);
  ASSERT_TRUE(q.ok());
  // Exactly the strings in §5.2.2 of the paper.
  EXPECT_EQ(q->Signature(), "arch:domain:license:memory,==:==:==:>=");
  EXPECT_EQ(q->Identifier(), "sun:purdue:tsuprem4:10");
  EXPECT_EQ(q->PoolName(),
            "arch:domain:license:memory,==:==:==:>=/sun:purdue:tsuprem4:10");
}

TEST(Parser, MissingRsrcKeysAreDontCare) {
  auto q = Parser::ParseBasic("punch.rsrc.arch = sun\n");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->GetRsrc("ostype").has_value());
  // appl/user default to "undefined" == empty lookup.
  EXPECT_EQ(q->GetAppl("expectedcpuuse"), "");
  EXPECT_EQ(q->GetUser("login"), "");
}

TEST(Parser, KeyRequiresThreeComponents) {
  EXPECT_FALSE(Parser::Parse("punch.arch = sun\n").ok());
  EXPECT_FALSE(Parser::Parse("arch = sun\n").ok());
}

TEST(Parser, RejectsUnknownType) {
  EXPECT_FALSE(Parser::Parse("punch.bogus.arch = sun\n").ok());
}

TEST(Parser, RejectsMixedFamilies) {
  EXPECT_FALSE(Parser::Parse("punch.rsrc.arch = sun\n"
                             "globus.rsrc.memory = 10\n")
                   .ok());
}

TEST(Parser, RejectsEmptyQuery) {
  EXPECT_FALSE(Parser::Parse("").ok());
  EXPECT_FALSE(Parser::Parse("# only a comment\n").ok());
}

TEST(Parser, WildcardValuesGetGlobSemantics) {
  auto q = Parser::ParseBasic("punch.rsrc.ostype = solaris*\n");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->GetRsrc("ostype")->op, CmpOp::kGlob);
}

TEST(Parser, DoubledSeparatorAbsorbed) {
  auto q = Parser::ParseBasic("punch.rsrc.arch == sun\n");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->GetRsrc("arch")->value.text(), "sun");
  EXPECT_EQ(q->GetRsrc("arch")->op, CmpOp::kEq);
}

TEST(Parser, DetachedOperatorValueKeepsOperator) {
  auto q = Parser::ParseBasic("punch.rsrc.arch = ==sun\n");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->GetRsrc("arch")->op, CmpOp::kEq);
  EXPECT_EQ(q->GetRsrc("arch")->value.text(), "sun");
}

// --- composite queries ---

TEST(Parser, OrClauseDecomposes) {
  auto composite = Parser::Parse("punch.rsrc.arch = sun|hp\n");
  ASSERT_TRUE(composite.ok());
  ASSERT_EQ(composite->size(), 2u);
  EXPECT_EQ(composite->alternatives()[0].GetRsrc("arch")->value.text(), "sun");
  EXPECT_EQ(composite->alternatives()[1].GetRsrc("arch")->value.text(), "hp");
}

TEST(Parser, CartesianProductOfOrClauses) {
  auto composite = Parser::Parse(
      "punch.rsrc.arch = sun|hp|sgi\n"
      "punch.rsrc.memory = >=10|>=100\n");
  ASSERT_TRUE(composite.ok());
  EXPECT_EQ(composite->size(), 6u);
}

TEST(Parser, SharedTermsAppearInEveryAlternative) {
  auto composite = Parser::Parse(
      "punch.rsrc.arch = sun|hp\n"
      "punch.rsrc.domain = purdue\n"
      "punch.user.login = kapadia\n");
  ASSERT_TRUE(composite.ok());
  for (const auto& alt : composite->alternatives()) {
    EXPECT_EQ(alt.GetRsrc("domain")->value.text(), "purdue");
    EXPECT_EQ(alt.GetUser("login"), "kapadia");
  }
}

TEST(Parser, ExplosionGuard) {
  // 4 keys x 4 alternatives = 256 > kMaxAlternatives (64).
  std::string text;
  for (int k = 0; k < 4; ++k) {
    text += "punch.rsrc.k" + std::to_string(k) + " = a|b|c|d\n";
  }
  EXPECT_FALSE(Parser::Parse(text).ok());
}

TEST(Parser, ParseBasicRejectsComposite) {
  EXPECT_FALSE(Parser::ParseBasic("punch.rsrc.arch = sun|hp\n").ok());
}

// Pipeline state rides on message headers, so the parser skips
// actyp.meta.* terms and ToText writes none.
TEST(Parser, IgnoresMetaTerms) {
  auto plain = Parser::ParseBasic(kPaperQuery);
  ASSERT_TRUE(plain.ok());
  auto with_meta = Parser::ParseBasic(std::string(kPaperQuery) +
                                      "actyp.meta.ttl = 3\n"
                                      "actyp.meta.visited = pm0,pm3\n");
  ASSERT_TRUE(with_meta.ok()) << with_meta.status().ToString();
  EXPECT_EQ(*with_meta, *plain);
  EXPECT_EQ(with_meta->ToText(), plain->ToText());
  EXPECT_EQ(plain->ToText().find("actyp."), std::string::npos);
}

TEST(Query, WireRoundTripPreservesState) {
  auto q = Parser::ParseBasic(kPaperQuery);
  ASSERT_TRUE(q.ok());
  auto round = Parser::ParseBasic(q->ToText());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(*round, *q);
  EXPECT_EQ(round->PoolName(), q->PoolName());
}

// --- matching ---

TEST(Query, MatchesAgainstAttributes) {
  auto q = Parser::ParseBasic(kPaperQuery);
  ASSERT_TRUE(q.ok());
  auto machine = [](const std::string& name) -> std::optional<std::string> {
    if (name == "arch") return "sun";
    if (name == "memory") return "512";
    if (name == "license") return "tsuprem4";
    if (name == "domain") return "purdue";
    return std::nullopt;
  };
  EXPECT_TRUE(q->Matches(machine));

  auto too_small = [&machine](const std::string& name) {
    if (name == "memory") return std::optional<std::string>("8");
    return machine(name);
  };
  EXPECT_FALSE(q->Matches(too_small));

  auto missing_license = [&machine](const std::string& name) {
    if (name == "license") return std::optional<std::string>();
    return machine(name);
  };
  EXPECT_FALSE(q->Matches(missing_license));
}

TEST(Query, SignatureOrderIndependentOfInsertion) {
  Query a, b;
  a.SetRsrc("memory", CmpOp::kGe, "10");
  a.SetRsrc("arch", CmpOp::kEq, "sun");
  b.SetRsrc("arch", CmpOp::kEq, "sun");
  b.SetRsrc("memory", CmpOp::kGe, "10");
  EXPECT_EQ(a.Signature(), b.Signature());
  EXPECT_EQ(a.Identifier(), b.Identifier());
}

TEST(Query, EmptyRsrcSignature) {
  Query q;
  EXPECT_EQ(q.Signature(), ",");
  EXPECT_EQ(q.Identifier(), "");
}

TEST(SplitKeyFn, HandlesDottedNames) {
  auto parts = SplitKey("punch.rsrc.os.version");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->family, "punch");
  EXPECT_EQ(parts->type, "rsrc");
  EXPECT_EQ(parts->name, "os.version");
}

TEST(ParseConditionFn, OperatorPrefixes) {
  EXPECT_EQ(ParseCondition(">=10").op, CmpOp::kGe);
  EXPECT_EQ(ParseCondition("<=10").op, CmpOp::kLe);
  EXPECT_EQ(ParseCondition(">10").op, CmpOp::kGt);
  EXPECT_EQ(ParseCondition("<10").op, CmpOp::kLt);
  EXPECT_EQ(ParseCondition("!=sun").op, CmpOp::kNe);
  EXPECT_EQ(ParseCondition("=~ultra*").op, CmpOp::kGlob);
  EXPECT_EQ(ParseCondition("plain").op, CmpOp::kEq);
}

}  // namespace
}  // namespace actyp::query
