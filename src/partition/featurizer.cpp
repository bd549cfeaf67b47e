#include "partition/featurizer.h"

#include "util/logging.h"

namespace lpa::partition {

Featurizer::Featurizer(const schema::Schema* schema, const EdgeSet* edges,
                       int num_query_slots)
    : schema_(schema), edges_(edges), num_query_slots_(num_query_slots) {
  int offset = 0;
  table_offset_.resize(static_cast<size_t>(schema->num_tables()));
  candidate_slot_.resize(static_cast<size_t>(schema->num_tables()));
  for (schema::TableId t = 0; t < schema->num_tables(); ++t) {
    table_offset_[static_cast<size_t>(t)] = offset;
    const auto& table = schema->table(t);
    candidate_slot_[static_cast<size_t>(t)].assign(table.columns.size(), -1);
    int slot = 0;
    for (size_t c = 0; c < table.columns.size(); ++c) {
      if (table.columns[c].partitionable) {
        candidate_slot_[static_cast<size_t>(t)][c] = slot++;
      }
    }
    offset += 1 + slot;  // replicated bit + one bit per candidate column
  }
  edge_offset_ = offset;
  offset += edges->size();
  freq_offset_ = offset;
  offset += num_query_slots_;
  state_dim_ = offset;
}

std::vector<double> Featurizer::EncodeState(
    const PartitioningState& state, const std::vector<double>& frequencies) const {
  LPA_CHECK(static_cast<int>(frequencies.size()) <= num_query_slots_);
  std::vector<double> out(static_cast<size_t>(state_dim_), 0.0);
  for (schema::TableId t = 0; t < schema_->num_tables(); ++t) {
    const auto& tp = state.table_partition(t);
    int base = table_offset_[static_cast<size_t>(t)];
    if (tp.replicated) {
      out[static_cast<size_t>(base)] = 1.0;
    } else {
      int slot = candidate_slot_[static_cast<size_t>(t)][static_cast<size_t>(tp.column)];
      LPA_CHECK(slot >= 0);
      out[static_cast<size_t>(base + 1 + slot)] = 1.0;
    }
  }
  for (int e = 0; e < edges_->size(); ++e) {
    if (state.edge_active(e)) out[static_cast<size_t>(edge_offset_ + e)] = 1.0;
  }
  for (size_t i = 0; i < frequencies.size(); ++i) {
    out[static_cast<size_t>(freq_offset_) + i] = frequencies[i];
  }
  return out;
}

}  // namespace lpa::partition
