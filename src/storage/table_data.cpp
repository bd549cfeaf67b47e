#include "storage/table_data.h"

namespace lpa::storage {

void TableData::Seal() {
  if (sealed_) return;
  encoded_.clear();
  encoded_.reserve(columns_.size() + 1);
  for (auto& col : columns_) {
    encoded_.push_back(EncodedColumn::Encode(col));
    col.clear();
    col.shrink_to_fit();
  }
  encoded_.push_back(EncodedColumn::Encode(rids_));
  EncodedColumn::ReleaseScratch();
  rids_.clear();
  rids_.shrink_to_fit();
  sealed_ = true;
}

void TableData::Thaw() {
  if (!sealed_) return;
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c] = encoded_[c].Decode();
  rids_ = encoded_.back().Decode();
  encoded_.clear();
  encoded_.shrink_to_fit();
  sealed_ = false;
}

size_t TableData::resident_bytes() const {
  size_t bytes = 0;
  if (sealed_) {
    for (const auto& e : encoded_) bytes += e.encoded_bytes();
  } else {
    for (const auto& col : columns_) bytes += col.capacity() * sizeof(int64_t);
    bytes += rids_.capacity() * sizeof(int64_t);
  }
  return bytes;
}

}  // namespace lpa::storage
