#pragma once

#include <vector>

#include "partition/partition_state.h"

namespace lpa::partition {

/// \brief Encodes partitioning states and workload mixes into the
/// fixed-length binary / frequency vectors of Fig 2.
///
/// State layout: per table `(r_i, a_i1 .. a_in)` over its *partitionable*
/// columns, appended for all tables; then one bit per edge; then the `m`
/// normalized query frequencies (`num_query_slots` entries — slots beyond
/// the current query count stay 0 and are reserved for incremental training,
/// Sec 5).
class Featurizer {
 public:
  Featurizer(const schema::Schema* schema, const EdgeSet* edges,
             int num_query_slots);

  int state_dim() const { return state_dim_; }
  int num_query_slots() const { return num_query_slots_; }

  /// \brief Encode partitioning + edge bits + frequencies. `frequencies` may
  /// be shorter than num_query_slots (missing slots encode as 0).
  std::vector<double> EncodeState(const PartitioningState& state,
                                  const std::vector<double>& frequencies) const;

 private:
  const schema::Schema* schema_;
  const EdgeSet* edges_;
  int num_query_slots_;
  int state_dim_ = 0;
  /// Offset of each table's section in the state vector.
  std::vector<int> table_offset_;
  /// Per (table, column): slot of the column among the table's partitionable
  /// columns, or -1.
  std::vector<std::vector<int>> candidate_slot_;
  int edge_offset_ = 0;
  int freq_offset_ = 0;
};

}  // namespace lpa::partition
