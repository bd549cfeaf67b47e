#pragma once

#include <string>
#include <vector>

#include "schema/schema.h"
#include "util/status.h"

namespace lpa::workload {

/// \brief One column equality `left = right` of a join predicate.
struct JoinEquality {
  schema::ColumnRef left;
  schema::ColumnRef right;

  bool operator==(const JoinEquality&) const = default;
};

/// \brief A (possibly compound) equi-join predicate: the conjunction of its
/// equalities. Compound predicates model composite keys — e.g. the TPC-CH
/// order-orderline join matches on order-id *and* the (warehouse, district)
/// compound, so partitioning both tables by district co-locates the join.
struct JoinPredicate {
  std::vector<JoinEquality> equalities;

  /// \brief The two table ids joined by this predicate (from the first
  /// equality; all equalities must join the same table pair).
  schema::TableId left_table() const { return equalities.front().left.table; }
  schema::TableId right_table() const { return equalities.front().right.table; }

  /// \brief True if the predicate connects tables `a` and `b` (unordered).
  bool Connects(schema::TableId a, schema::TableId b) const {
    return (left_table() == a && right_table() == b) ||
           (left_table() == b && right_table() == a);
  }
};

/// \brief A base-table access with the combined selectivity of its local
/// (non-join) predicates.
struct TableScan {
  schema::TableId table = -1;
  double selectivity = 1.0;
};

/// \brief Structural representation of one OLAP query.
///
/// The advisor does not need full SQL semantics: what determines the effect
/// of a partitioning are the accessed tables, their local selectivities, the
/// equi-join graph, and how much of the join result survives aggregation.
/// `lpa::sql::ParseQuery` produces QuerySpecs from SQL text; the benchmark
/// workloads construct them directly.
struct QuerySpec {
  /// Planner limits (costmodel::CostModel). Its DP table has one slot per
  /// subset of the scanned tables, and it tracks a partitioning property as
  /// a 64-bit mask over the query's columns: each table's partition column
  /// and every join column.
  static constexpr int kMaxTables = 16;
  static constexpr int kMaxPlanColumns = 64;

  std::string name;
  std::vector<TableScan> scans;
  std::vector<JoinPredicate> joins;
  /// Fraction of the final join result that is materialized / aggregated
  /// into the query answer (1.0 = full result shipped to the coordinator).
  double output_fraction = 0.01;
  /// Selectivity bucket for parameterized queries (Sec 3.2): instances of
  /// the same template whose parameters fall in different selectivity ranges
  /// occupy different workload-state entries.
  int selectivity_bucket = 0;

  /// \brief Number of referenced tables.
  int num_tables() const { return static_cast<int>(scans.size()); }

  /// \brief All referenced table ids, in scan order.
  std::vector<schema::TableId> tables() const;

  /// \brief True if the query references the given table.
  bool References(schema::TableId table) const;

  /// \brief Local selectivity of `table` (1.0 if not referenced).
  double SelectivityOf(schema::TableId table) const;

  /// \brief Validate against a schema: scans reference distinct existing
  /// tables, join equalities reference scanned tables and existing columns,
  /// the join graph is connected, and the query fits the planner limits
  /// (`kMaxTables`; tables plus distinct join columns <= `kMaxPlanColumns`).
  Status Validate(const schema::Schema& schema) const;
};

/// \brief Builder used by the workload generators and the SQL binder.
class QueryBuilder {
 public:
  QueryBuilder(const schema::Schema* schema, std::string name)
      : schema_(schema) {
    spec_.name = std::move(name);
  }

  /// \brief Add a table scan with the given local selectivity.
  QueryBuilder& Scan(const std::string& table, double selectivity = 1.0);

  /// \brief Add a single-equality join `t1.c1 = t2.c2`.
  QueryBuilder& Join(const std::string& t1, const std::string& c1,
                     const std::string& t2, const std::string& c2);

  /// \brief Add an additional equality to the most recent join predicate,
  /// forming a compound predicate.
  QueryBuilder& AndJoin(const std::string& t1, const std::string& c1,
                        const std::string& t2, const std::string& c2);

  /// \brief Set the output fraction surviving aggregation.
  QueryBuilder& Output(double fraction);

  /// \brief Set the selectivity bucket id.
  QueryBuilder& Bucket(int bucket);

  /// \brief Finalize; aborts on an invalid spec (generator coding error).
  QuerySpec Build() const;

 private:
  schema::ColumnRef MustResolve(const std::string& table,
                                const std::string& column) const;

  const schema::Schema* schema_;
  QuerySpec spec_;
};

}  // namespace lpa::workload
