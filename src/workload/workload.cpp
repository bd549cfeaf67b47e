#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace lpa::workload {

int Workload::AddQuery(QuerySpec query) {
  queries_.push_back(std::move(query));
  frequencies_.push_back(0.0);
  return static_cast<int>(queries_.size()) - 1;
}

Status Workload::CheckFrequencies(const std::vector<double>& freqs) const {
  if (freqs.size() != queries_.size()) {
    return Status::InvalidArgument(
        "frequency vector has " + std::to_string(freqs.size()) +
        " entries; workload has " + std::to_string(queries_.size()) +
        " queries");
  }
  for (double f : freqs) {
    if (!std::isfinite(f) || f < 0.0) {
      return Status::InvalidArgument("frequency " + std::to_string(f) +
                                     " is not finite and >= 0");
    }
  }
  return Status::OK();
}

Status Workload::SetFrequencies(std::vector<double> freqs) {
  LPA_RETURN_NOT_OK(CheckFrequencies(freqs));
  frequencies_ = NormalizeFrequencies(std::move(freqs));
  return Status::OK();
}

void Workload::SetUniformFrequencies() {
  std::fill(frequencies_.begin(), frequencies_.end(), 1.0);
}

std::vector<schema::TableId> Workload::ReferencedTables() const {
  std::vector<schema::TableId> tables;
  for (const auto& q : queries_) {
    for (schema::TableId t : q.tables()) {
      if (std::find(tables.begin(), tables.end(), t) == tables.end()) {
        tables.push_back(t);
      }
    }
  }
  std::sort(tables.begin(), tables.end());
  return tables;
}

std::vector<int> Workload::QueriesTouching(
    const std::vector<schema::TableId>& tables) const {
  std::vector<int> result;
  for (int i = 0; i < num_queries(); ++i) {
    for (schema::TableId t : tables) {
      if (queries_[static_cast<size_t>(i)].References(t)) {
        result.push_back(i);
        break;
      }
    }
  }
  return result;
}

Status Workload::Validate(const schema::Schema& schema) const {
  for (const auto& q : queries_) {
    LPA_RETURN_NOT_OK(q.Validate(schema));
  }
  return Status::OK();
}

std::vector<double> NormalizeFrequencies(std::vector<double> freqs) {
  double max_f = 0.0;
  for (double f : freqs) max_f = std::max(max_f, f);
  if (max_f > 0.0) {
    for (double& f : freqs) f /= max_f;
  }
  return freqs;
}

std::vector<double> OverRepresentedFrequencies(int num_queries, int hot,
                                               double low, double high) {
  std::vector<double> freqs(static_cast<size_t>(num_queries), low);
  freqs.at(static_cast<size_t>(hot)) = high;
  return NormalizeFrequencies(std::move(freqs));
}

std::vector<double> SampleUniformFrequencies(int num_queries, Rng* rng) {
  std::vector<double> freqs(static_cast<size_t>(num_queries));
  for (double& f : freqs) f = rng->Uniform(0.0, 1.0);
  return NormalizeFrequencies(std::move(freqs));
}

std::vector<double> SampleBoostedFrequencies(int num_queries,
                                             const std::vector<int>& boosted,
                                             Rng* rng) {
  std::vector<double> freqs(static_cast<size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    bool hot = std::find(boosted.begin(), boosted.end(), i) != boosted.end();
    freqs[static_cast<size_t>(i)] =
        hot ? rng->Uniform(0.5, 1.0) : rng->Uniform(0.0, 0.3);
  }
  return NormalizeFrequencies(std::move(freqs));
}

}  // namespace lpa::workload
