#pragma once

#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"
#include "workload/query.h"

namespace lpa::workload {

/// \brief A representative query set plus the current query-mix frequencies.
///
/// This is the workload state of Sec 3.2: the advisor is trained once over a
/// fixed set of representative queries and fed different normalized frequency
/// vectors `s(Q) = (f_1 .. f_m)` at training and inference time. Entries may
/// be zero ("slots" for queries that have not occurred yet, including reserve
/// slots used by incremental training).
class Workload {
 public:
  Workload() = default;
  explicit Workload(std::vector<QuerySpec> queries)
      : queries_(std::move(queries)),
        frequencies_(queries_.size(), 1.0) {}

  /// \brief Append a query with frequency 0 (a fresh slot); returns its index.
  int AddQuery(QuerySpec query);

  int num_queries() const { return static_cast<int>(queries_.size()); }
  const std::vector<QuerySpec>& queries() const { return queries_; }
  const QuerySpec& query(int i) const { return queries_.at(static_cast<size_t>(i)); }

  /// \brief Current frequency vector (normalized so the max entry is 1).
  const std::vector<double>& frequencies() const { return frequencies_; }

  /// \brief OK iff `freqs` can serve as this workload's frequency vector:
  /// one entry per query, each finite and >= 0. InvalidArgument otherwise.
  Status CheckFrequencies(const std::vector<double>& freqs) const;

  /// \brief Replace the frequency vector (rejected unless CheckFrequencies
  /// passes); it is re-normalized to max = 1.
  Status SetFrequencies(std::vector<double> freqs);

  /// \brief Set every frequency to 1.
  void SetUniformFrequencies();

  /// \brief All tables referenced by at least one query.
  std::vector<schema::TableId> ReferencedTables() const;

  /// \brief Queries (indices) referencing any table in `tables`. Used by the
  /// query-runtime cache and lazy repartitioning (Sec 4.2).
  std::vector<int> QueriesTouching(const std::vector<schema::TableId>& tables) const;

  /// \brief Validate every query against the schema.
  Status Validate(const schema::Schema& schema) const;

 private:
  std::vector<QuerySpec> queries_;
  std::vector<double> frequencies_;
};

/// \brief Normalize a frequency vector so its maximum entry equals 1.
std::vector<double> NormalizeFrequencies(std::vector<double> freqs);

/// \brief Frequency vector with query `hot` over-represented: `f_hot = high`
/// and all others `low`. Used to derive reference partitionings (Sec 5).
std::vector<double> OverRepresentedFrequencies(int num_queries, int hot,
                                               double low = 0.1,
                                               double high = 1.0);

/// \brief Uniform random frequency vector (each entry ~ U[0,1], renormalized).
std::vector<double> SampleUniformFrequencies(int num_queries, Rng* rng);

/// \brief Random frequency vector where queries whose index is in `boosted`
/// get weights ~ U[0.5, 1] and the rest ~ U[0, 0.3] — models the "cluster B"
/// style mixes of Exp 3b where certain joins dominate.
std::vector<double> SampleBoostedFrequencies(int num_queries,
                                             const std::vector<int>& boosted,
                                             Rng* rng);

}  // namespace lpa::workload
