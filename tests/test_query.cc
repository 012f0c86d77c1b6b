// Tests for query/: QuerySpec validation and JoinGraph analysis.

#include <gtest/gtest.h>

#include "query/join_graph.h"
#include "query/query_spec.h"

namespace bouquet {
namespace {

Catalog ThreeTableCatalog() {
  Catalog c;
  c.AddTable(Catalog::MakeTable("a", 100, 64, {"k", "x"}, 100));
  c.AddTable(Catalog::MakeTable("b", 200, 64, {"k", "ak", "y"}, 200));
  c.AddTable(Catalog::MakeTable("c", 300, 64, {"k", "bk"}, 300));
  return c;
}

JoinPredicate J(const std::string& lt, const std::string& lc,
                const std::string& rt, const std::string& rc) {
  return JoinPredicate{lt, lc, rt, rc, -1.0};
}

QuerySpec ChainQuery() {
  QuerySpec q;
  q.name = "chain3";
  q.tables = {"a", "b", "c"};
  q.joins = {J("a", "k", "b", "ak"), J("b", "k", "c", "bk")};
  return q;
}

TEST(QuerySpecTest, ValidChain) {
  const Catalog cat = ThreeTableCatalog();
  EXPECT_TRUE(ChainQuery().Validate(cat).ok());
}

TEST(QuerySpecTest, RejectsUnknownTable) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  q.tables.push_back("nope");
  EXPECT_FALSE(q.Validate(cat).ok());
}

TEST(QuerySpecTest, RejectsDisconnectedGraph) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  q.joins.pop_back();  // c now disconnected
  const Status s = q.Validate(cat);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(QuerySpecTest, RejectsUnknownColumn) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  q.filters.push_back({"a", "missing", CompareOp::kLess, 5, -1.0});
  EXPECT_FALSE(q.Validate(cat).ok());
}

TEST(QuerySpecTest, RejectsBadDimIndex) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  ErrorDimension d;
  d.kind = DimKind::kJoin;
  d.predicate_index = 7;
  q.error_dims.push_back(d);
  EXPECT_FALSE(q.Validate(cat).ok());
}

TEST(QuerySpecTest, RejectsBadDimRange) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  ErrorDimension d;
  d.kind = DimKind::kJoin;
  d.predicate_index = 0;
  d.lo = 0.0;  // must be > 0
  d.hi = 0.5;
  q.error_dims.push_back(d);
  EXPECT_FALSE(q.Validate(cat).ok());
  q.error_dims[0].lo = 0.9;
  q.error_dims[0].hi = 0.5;  // lo > hi
  EXPECT_FALSE(q.Validate(cat).ok());
}

// Error-dimension masks are 32 bits (SubsetDimMask, MovedDims); a 33rd
// dimension would shift past them, so Validate refuses it in every build
// type, not only where the asserts are on.
TEST(QuerySpecTest, RejectsMoreThan32ErrorDims) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  for (int i = 0; i < 32; ++i) {
    q.filters.push_back({"a", "x", CompareOp::kLess, i, -1.0});
    ErrorDimension d;
    d.kind = DimKind::kSelection;
    d.predicate_index = i;
    q.error_dims.push_back(d);
  }
  EXPECT_TRUE(q.Validate(cat).ok());
  q.filters.push_back({"a", "x", CompareOp::kLess, 32, -1.0});
  ErrorDimension d;
  d.kind = DimKind::kSelection;
  d.predicate_index = 32;
  q.error_dims.push_back(d);
  const Status s = q.Validate(cat);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(QuerySpecTest, RejectsEmptyQuery) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q;
  EXPECT_FALSE(q.Validate(cat).ok());
}

TEST(QuerySpecTest, RejectsSelfJoin) {
  const Catalog cat = ThreeTableCatalog();
  QuerySpec q = ChainQuery();
  q.joins.push_back(J("a", "k", "a", "x"));
  EXPECT_FALSE(q.Validate(cat).ok());
}

TEST(QuerySpecTest, TableIndex) {
  const QuerySpec q = ChainQuery();
  EXPECT_EQ(q.TableIndex("a"), 0);
  EXPECT_EQ(q.TableIndex("c"), 2);
  EXPECT_EQ(q.TableIndex("zz"), -1);
}

TEST(QuerySpecTest, SelectionPredicateConstant) {
  SelectionPredicate f;
  EXPECT_FALSE(f.has_constant());
  f.constant = 5;
  EXPECT_TRUE(f.has_constant());
}

TEST(CompareOpTest, Names) {
  EXPECT_STREQ(CompareOpName(CompareOp::kLess), "<");
  EXPECT_STREQ(CompareOpName(CompareOp::kEqual), "=");
  EXPECT_STREQ(CompareOpName(CompareOp::kGreaterEqual), ">=");
}

// ---------------------------------------------------------------------------
// JoinGraph
// ---------------------------------------------------------------------------

QuerySpec NTableQuery(int n, const std::vector<std::pair<int, int>>& edges) {
  QuerySpec q;
  for (int i = 0; i < n; ++i) q.tables.push_back("t" + std::to_string(i));
  for (auto [a, b] : edges) {
    q.joins.push_back(J(q.tables[a], "k", q.tables[b], "k"));
  }
  return q;
}

TEST(JoinGraphTest, Connectivity) {
  const QuerySpec q = NTableQuery(4, {{0, 1}, {1, 2}, {2, 3}});
  const JoinGraph g(q);
  EXPECT_TRUE(g.IsConnectedSubset(0b1111));
  EXPECT_TRUE(g.IsConnectedSubset(0b0111));
  EXPECT_TRUE(g.IsConnectedSubset(0b0001));
  EXPECT_FALSE(g.IsConnectedSubset(0b1001));  // t0 and t3 not adjacent
  EXPECT_FALSE(g.IsConnectedSubset(0b0101));
  EXPECT_FALSE(g.IsConnectedSubset(0));
}

TEST(JoinGraphTest, CrossingJoins) {
  const QuerySpec q = NTableQuery(4, {{0, 1}, {1, 2}, {2, 3}});
  const JoinGraph g(q);
  EXPECT_TRUE(g.HasCrossingJoin(0b0011, 0b0100));
  EXPECT_FALSE(g.HasCrossingJoin(0b0001, 0b1000));
  EXPECT_EQ(g.CrossingJoins(0b0011, 0b1100), (std::vector<int>{1}));
  EXPECT_EQ(g.InternalJoins(0b0111), (std::vector<int>{0, 1}));
}

TEST(JoinGraphTest, GeometryChain) {
  EXPECT_EQ(JoinGraph(NTableQuery(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}))
                .Geometry(),
            "chain");
}

TEST(JoinGraphTest, GeometryStar) {
  EXPECT_EQ(JoinGraph(NTableQuery(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}}))
                .Geometry(),
            "star");
}

TEST(JoinGraphTest, GeometryBranch) {
  // Tree, max degree 3, not a star (n=6 so star center would need deg 5).
  EXPECT_EQ(JoinGraph(NTableQuery(
                          6, {{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}}))
                .Geometry(),
            "branch");
}

TEST(JoinGraphTest, GeometryCycle) {
  EXPECT_EQ(JoinGraph(NTableQuery(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}))
                .Geometry(),
            "cycle");
}

TEST(JoinGraphTest, GeometryTwoTableChain) {
  EXPECT_EQ(JoinGraph(NTableQuery(2, {{0, 1}})).Geometry(), "chain");
}

TEST(JoinGraphTest, JoinEndpoints) {
  const QuerySpec q = NTableQuery(3, {{0, 2}});
  const JoinGraph g(q);
  const auto [l, r] = g.JoinEndpoints(0);
  EXPECT_EQ(l, 0);
  EXPECT_EQ(r, 2);
}

}  // namespace
}  // namespace bouquet
