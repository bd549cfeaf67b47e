#include "workload/query.h"

#include <algorithm>

#include "util/logging.h"

namespace lpa::workload {

std::vector<schema::TableId> QuerySpec::tables() const {
  std::vector<schema::TableId> result;
  result.reserve(scans.size());
  for (const auto& scan : scans) result.push_back(scan.table);
  return result;
}

bool QuerySpec::References(schema::TableId table) const {
  return std::any_of(scans.begin(), scans.end(),
                     [table](const TableScan& s) { return s.table == table; });
}

double QuerySpec::SelectivityOf(schema::TableId table) const {
  for (const auto& scan : scans) {
    if (scan.table == table) return scan.selectivity;
  }
  return 1.0;
}

Status QuerySpec::Validate(const schema::Schema& schema) const {
  if (scans.empty()) return Status::InvalidArgument(name + ": no tables");
  if (num_tables() > kMaxTables) {
    return Status::InvalidArgument(name + ": more than " +
                                   std::to_string(kMaxTables) + " tables");
  }
  for (const auto& scan : scans) {
    if (scan.table < 0 || scan.table >= schema.num_tables()) {
      return Status::InvalidArgument(name + ": scan of unknown table");
    }
    if (scan.selectivity <= 0.0 || scan.selectivity > 1.0) {
      return Status::InvalidArgument(name + ": selectivity out of (0, 1]");
    }
  }
  for (size_t i = 0; i < scans.size(); ++i) {
    for (size_t j = i + 1; j < scans.size(); ++j) {
      if (scans[i].table == scans[j].table) {
        return Status::InvalidArgument(name + ": duplicate table scan");
      }
    }
  }
  std::vector<schema::ColumnRef> join_columns;
  for (const auto& join : joins) {
    if (join.equalities.empty()) {
      return Status::InvalidArgument(name + ": empty join predicate");
    }
    schema::TableId lt = join.left_table();
    schema::TableId rt = join.right_table();
    if (lt == rt) return Status::InvalidArgument(name + ": self join");
    if (!References(lt) || !References(rt)) {
      return Status::InvalidArgument(name + ": join references unscanned table");
    }
    for (const auto& eq : join.equalities) {
      if (eq.left.table != lt || eq.right.table != rt) {
        return Status::InvalidArgument(
            name + ": compound join equality crosses table pairs");
      }
      for (const auto& ref : {eq.left, eq.right}) {
        const auto& table = schema.table(ref.table);
        if (ref.column < 0 ||
            ref.column >= static_cast<schema::ColumnId>(table.columns.size())) {
          return Status::InvalidArgument(name + ": unknown join column");
        }
        if (std::find(join_columns.begin(), join_columns.end(), ref) ==
            join_columns.end()) {
          join_columns.push_back(ref);
        }
      }
    }
  }
  if (num_tables() + static_cast<int>(join_columns.size()) > kMaxPlanColumns) {
    return Status::InvalidArgument(
        name + ": tables plus distinct join columns exceed " +
        std::to_string(kMaxPlanColumns));
  }
  // Connectivity check over the join graph (single-table queries pass).
  if (scans.size() > 1) {
    std::vector<schema::TableId> frontier{scans.front().table};
    std::vector<bool> visited(static_cast<size_t>(schema.num_tables()), false);
    visited[static_cast<size_t>(scans.front().table)] = true;
    size_t reached = 1;
    while (!frontier.empty()) {
      schema::TableId t = frontier.back();
      frontier.pop_back();
      for (const auto& join : joins) {
        schema::TableId other = -1;
        if (join.left_table() == t) other = join.right_table();
        if (join.right_table() == t) other = join.left_table();
        if (other >= 0 && !visited[static_cast<size_t>(other)]) {
          visited[static_cast<size_t>(other)] = true;
          ++reached;
          frontier.push_back(other);
        }
      }
    }
    if (reached != scans.size()) {
      return Status::InvalidArgument(name + ": join graph not connected");
    }
  }
  return Status::OK();
}

schema::ColumnRef QueryBuilder::MustResolve(const std::string& table,
                                            const std::string& column) const {
  auto ref = schema_->Resolve(table, column);
  if (!ref.ok()) {
    LPA_LOG(Error) << spec_.name << ": " << ref.status().ToString();
    std::abort();
  }
  return *ref;
}

QueryBuilder& QueryBuilder::Scan(const std::string& table, double selectivity) {
  schema::TableId id = schema_->TableIndex(table);
  LPA_CHECK(id >= 0);
  spec_.scans.push_back(TableScan{id, selectivity});
  return *this;
}

QueryBuilder& QueryBuilder::Join(const std::string& t1, const std::string& c1,
                                 const std::string& t2, const std::string& c2) {
  JoinPredicate p;
  p.equalities.push_back(JoinEquality{MustResolve(t1, c1), MustResolve(t2, c2)});
  spec_.joins.push_back(std::move(p));
  return *this;
}

QueryBuilder& QueryBuilder::AndJoin(const std::string& t1, const std::string& c1,
                                    const std::string& t2, const std::string& c2) {
  LPA_CHECK(!spec_.joins.empty());
  spec_.joins.back().equalities.push_back(
      JoinEquality{MustResolve(t1, c1), MustResolve(t2, c2)});
  return *this;
}

QueryBuilder& QueryBuilder::Output(double fraction) {
  spec_.output_fraction = fraction;
  return *this;
}

QueryBuilder& QueryBuilder::Bucket(int bucket) {
  spec_.selectivity_bucket = bucket;
  return *this;
}

QuerySpec QueryBuilder::Build() const {
  Status st = spec_.Validate(*schema_);
  if (!st.ok()) {
    LPA_LOG(Error) << st.ToString();
    std::abort();
  }
  return spec_;
}

}  // namespace lpa::workload
