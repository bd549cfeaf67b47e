#include "storage/database.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "util/hash.h"
#include "util/logging.h"

namespace lpa::storage {

namespace {

/// One foreign-key generation rule: child columns copied from a sampled
/// parent row (composite keys copy several columns from the same row).
struct FkGroup {
  schema::TableId parent = -1;
  std::vector<std::pair<schema::ColumnId, schema::ColumnId>> mappings;
};

/// Derive the FK groups of `child`: one group per schema foreign key,
/// extended with every additional equality that appears together with that
/// foreign key in some workload join predicate.
std::vector<FkGroup> DeriveFkGroups(const schema::Schema& schema,
                                    const workload::Workload& workload,
                                    schema::TableId child) {
  std::vector<FkGroup> groups;
  for (const auto& fk : schema.foreign_keys()) {
    if (fk.from.table != child) continue;
    FkGroup group;
    group.parent = fk.to.table;
    group.mappings.emplace_back(fk.from.column, fk.to.column);
    for (const auto& q : workload.queries()) {
      for (const auto& join : q.joins) {
        if (!join.Connects(child, group.parent)) continue;
        // The predicate must contain this foreign key's equality.
        bool has_fk = false;
        for (const auto& eq : join.equalities) {
          if ((eq.left == fk.from && eq.right == fk.to) ||
              (eq.left == fk.to && eq.right == fk.from)) {
            has_fk = true;
          }
        }
        if (!has_fk) continue;
        for (const auto& eq : join.equalities) {
          schema::ColumnRef c = eq.left.table == child ? eq.left : eq.right;
          schema::ColumnRef p = eq.left.table == child ? eq.right : eq.left;
          auto mapping = std::make_pair(c.column, p.column);
          if (std::find(group.mappings.begin(), group.mappings.end(), mapping) ==
              group.mappings.end()) {
            group.mappings.push_back(mapping);
          }
        }
      }
    }
    groups.push_back(std::move(group));
  }
  // Smaller (less specific) groups first so overlapping columns end up
  // consistent with the most constrained parent (e.g. orderline's item id
  // comes from the sampled stock row, which itself references a real item).
  std::stable_sort(groups.begin(), groups.end(),
                   [](const FkGroup& a, const FkGroup& b) {
                     return a.mappings.size() < b.mappings.size();
                   });
  return groups;
}

/// Target materialized row count for a table.
size_t TargetRows(const schema::Table& table, const GenerationConfig& config) {
  if (table.row_count <= config.small_table_threshold) {
    return static_cast<size_t>(table.row_count);
  }
  double scaled = static_cast<double>(table.row_count) * config.fraction;
  return static_cast<size_t>(
      std::max(scaled, static_cast<double>(config.small_table_threshold)));
}

}  // namespace

Database::Database(const schema::Schema* schema,
                   const workload::Workload* workload)
    : schema_(schema), workload_(workload) {
  tables_.reserve(static_cast<size_t>(schema->num_tables()));
  for (schema::TableId t = 0; t < schema->num_tables(); ++t) {
    tables_.emplace_back(
        static_cast<int>(schema->table(t).columns.size()));
  }
}

std::vector<schema::TableId> Database::TopologicalOrder() const {
  const int n = schema_->num_tables();
  std::vector<int> out_degree(static_cast<size_t>(n), 0);  // #parents pending
  for (const auto& fk : schema_->foreign_keys()) {
    ++out_degree[static_cast<size_t>(fk.from.table)];
  }
  std::vector<schema::TableId> order;
  std::vector<bool> emitted(static_cast<size_t>(n), false);
  // Kahn's algorithm: repeatedly emit tables whose parents are all emitted.
  while (static_cast<int>(order.size()) < n) {
    bool progress = false;
    for (schema::TableId t = 0; t < n; ++t) {
      if (emitted[static_cast<size_t>(t)]) continue;
      bool ready = true;
      for (const auto& fk : schema_->foreign_keys()) {
        if (fk.from.table == t && !emitted[static_cast<size_t>(fk.to.table)]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(t);
        emitted[static_cast<size_t>(t)] = true;
        progress = true;
      }
    }
    LPA_CHECK(progress);  // schema FK graphs are acyclic
  }
  return order;
}

void Database::GenerateRows(schema::TableId t, size_t count, Rng* rng) {
  const auto& table = schema_->table(t);
  auto groups = DeriveFkGroups(*schema_, *workload_, t);
  TableData& data = tables_[static_cast<size_t>(t)];
  data.Reserve(data.num_rows() + count);

  // Per-column Zipf samplers, indexed by column (only built for skewed,
  // small-domain columns; the others draw uniformly).
  std::vector<std::optional<ZipfSampler>> zipf(table.columns.size());
  for (size_t c = 0; c < table.columns.size(); ++c) {
    const auto& col = table.columns[c];
    if (col.zipf_theta > 0.0 && col.distinct_count <= 1'000'000) {
      zipf[c].emplace(col.distinct_count, col.zipf_theta);
    }
  }

  std::vector<int64_t> values(table.columns.size());
  for (size_t i = 0; i < count; ++i) {
    for (size_t c = 0; c < table.columns.size(); ++c) {
      values[c] = zipf[c] ? zipf[c]->Sample(rng)
                          : rng->UniformInt(1, table.columns[c].distinct_count);
    }
    for (const auto& group : groups) {
      const TableData& parent = tables_[static_cast<size_t>(group.parent)];
      if (parent.num_rows() == 0) continue;
      size_t pidx = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(parent.num_rows()) - 1));
      for (const auto& [cc, pc] : group.mappings) {
        // view() instead of column(): a parent may be sealed when the engine
        // bulk-appends into an already compressed cluster (Exp 3a).
        values[static_cast<size_t>(cc)] = parent.view(pc).At(pidx);
      }
    }
    data.AppendRow(std::span<const int64_t>(values), next_rid_++);
  }
}

Database Database::Generate(const schema::Schema& schema,
                            const workload::Workload& workload,
                            const GenerationConfig& config) {
  Database db(&schema, &workload);
  Rng rng(config.seed);
  for (schema::TableId t : db.TopologicalOrder()) {
    Rng table_rng(HashCombine(config.seed, HashString(schema.table(t).name)));
    db.GenerateRows(t, TargetRows(schema.table(t), config), &table_rng);
  }
  return db;
}

double Database::materialized_fraction(schema::TableId t) const {
  return static_cast<double>(tables_.at(static_cast<size_t>(t)).num_rows()) /
         static_cast<double>(schema_->table(t).row_count);
}

size_t Database::total_rows() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t.num_rows();
  return total;
}

void Database::BulkAppend(double fraction, uint64_t seed) {
  for (schema::TableId t : TopologicalOrder()) {
    size_t extra = static_cast<size_t>(std::llround(
        static_cast<double>(tables_[static_cast<size_t>(t)].num_rows()) *
        fraction));
    if (extra == 0) continue;
    Rng rng(HashCombine(seed, HashString(schema_->table(t).name)));
    GenerateRows(t, extra, &rng);
  }
}

Database Database::Sample(double rate, int64_t min_rows, uint64_t seed) const {
  Database sample(schema_, workload_);
  sample.next_rid_ = next_rid_;
  for (schema::TableId t = 0; t < schema_->num_tables(); ++t) {
    const TableData& src = tables_[static_cast<size_t>(t)];
    TableData& dst = sample.tables_[static_cast<size_t>(t)];
    size_t rows = src.num_rows();
    if (rows == 0) continue;
    double target = std::max(static_cast<double>(rows) * rate,
                             std::min(static_cast<double>(rows),
                                      static_cast<double>(min_rows)));
    double keep_fraction = std::min(target / static_cast<double>(rows), 1.0);
    uint64_t threshold = static_cast<uint64_t>(
        keep_fraction * static_cast<double>(UINT64_MAX));
    for (size_t r = 0; r < rows; ++r) {
      uint64_t h = Hash64(static_cast<uint64_t>(src.rids()[r]) ^ seed);
      if (h <= threshold) dst.AppendRowFrom(src, r);
    }
  }
  return sample;
}

}  // namespace lpa::storage
