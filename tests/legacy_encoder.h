// The column encoder as it was before the one-pass rewrite, kept as the
// reference the current encoder is checked against: on every input,
// storage::EncodedColumn::Encode must pick the encoding that
// legacy::EncodedColumn::Encode picks and write the same bytes. The encode
// functions below are the old ones verbatim; the read half (At, Decode,
// Gather) is unchanged in storage::EncodedColumn and not repeated here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "storage/encoded_column.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lpa::storage::legacy {

/// Deltas are computed in uint64 space so that min == INT64_MIN and friends
/// round-trip without signed overflow (two's complement wraparound is exact).
inline uint64_t DeltaOf(int64_t value, int64_t base) {
  return static_cast<uint64_t>(value) - static_cast<uint64_t>(base);
}

inline size_t WordsFor(uint64_t bits) {
  return static_cast<size_t>((bits + 63) / 64);
}

/// The old storage::EncodedColumn with its members public, so a test can
/// compare representations.
struct EncodedColumn {
  static constexpr size_t kBlock = 1024;
  static constexpr size_t kDictMaxCard = size_t{1} << 16;

  static ColumnStats Analyze(const std::vector<int64_t>& values);
  static EncodedColumn Encode(const std::vector<int64_t>& values);
  static EncodedColumn EncodeAs(Encoding encoding,
                                const std::vector<int64_t>& values);
  size_t encoded_bytes() const;
  /// Hashes the members in storage::EncodedColumn::RepresentationDigest's
  /// order, so equal digests mean equal bytes across the two classes.
  uint64_t RepresentationDigest() const;

  static void WriteBits(std::vector<uint64_t>* words, uint64_t bit_pos,
                        int width, uint64_t value);
  static EncodedColumn EncodePlain(const std::vector<int64_t>& values);
  static EncodedColumn EncodeRle(const std::vector<int64_t>& values);
  static EncodedColumn EncodeDict(const std::vector<int64_t>& values);
  static EncodedColumn EncodeFor(const std::vector<int64_t>& values);

  Encoding encoding_ = Encoding::kPlain;
  size_t size_ = 0;

  std::vector<int64_t> plain_;       // kPlain
  std::vector<int64_t> rle_values_;  // kRle: value per run
  std::vector<uint64_t> rle_ends_;   // kRle: cumulative end row (exclusive)
  std::vector<int64_t> dict_;        // kDict: sorted unique values
  int code_width_ = 0;               // kDict: bits per code
  std::vector<int64_t> for_bases_;   // kFor: per-block minimum
  std::vector<uint64_t> for_offsets_;  // kFor: per-block bit offset
  std::vector<uint8_t> for_widths_;  // kFor: per-block bits per delta
  std::vector<uint64_t> bits_;       // packed payload (codes / deltas)
};

inline void EncodedColumn::WriteBits(std::vector<uint64_t>* words, uint64_t bit_pos,
                              int width, uint64_t value) {
  if (width == 0) return;
  size_t word = static_cast<size_t>(bit_pos >> 6);
  int off = static_cast<int>(bit_pos & 63);
  (*words)[word] |= value << off;
  if (off + width > 64) (*words)[word + 1] |= value >> (64 - off);
}

inline ColumnStats EncodedColumn::Analyze(const std::vector<int64_t>& values) {
  ColumnStats stats;
  stats.values = values.size();
  if (values.empty()) return stats;
  stats.min = stats.max = values[0];
  stats.runs = 1;
  std::unordered_set<int64_t> distinct;
  distinct.reserve(1024);
  bool capped = false;
  distinct.insert(values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    int64_t v = values[i];
    if (v != values[i - 1]) ++stats.runs;
    if (v < values[i - 1]) stats.sorted = false;
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
    if (!capped) {
      distinct.insert(v);
      if (distinct.size() > kDictMaxCard) capped = true;
    }
  }
  stats.distinct = capped ? kDictMaxCard + 1 : distinct.size();
  return stats;
}

inline EncodedColumn EncodedColumn::EncodePlain(const std::vector<int64_t>& values) {
  EncodedColumn c;
  c.encoding_ = Encoding::kPlain;
  c.size_ = values.size();
  c.plain_ = values;
  c.plain_.shrink_to_fit();
  return c;
}

inline EncodedColumn EncodedColumn::EncodeRle(const std::vector<int64_t>& values) {
  EncodedColumn c;
  c.encoding_ = Encoding::kRle;
  c.size_ = values.size();
  for (size_t i = 0; i < values.size(); ++i) {
    if (c.rle_values_.empty() || values[i] != c.rle_values_.back()) {
      c.rle_values_.push_back(values[i]);
      c.rle_ends_.push_back(i + 1);
    } else {
      c.rle_ends_.back() = i + 1;
    }
  }
  c.rle_values_.shrink_to_fit();
  c.rle_ends_.shrink_to_fit();
  return c;
}

inline EncodedColumn EncodedColumn::EncodeDict(const std::vector<int64_t>& values) {
  EncodedColumn c;
  c.encoding_ = Encoding::kDict;
  c.size_ = values.size();
  c.dict_ = values;
  std::sort(c.dict_.begin(), c.dict_.end());
  c.dict_.erase(std::unique(c.dict_.begin(), c.dict_.end()), c.dict_.end());
  c.dict_.shrink_to_fit();
  LPA_CHECK(c.dict_.size() <= kDictMaxCard);
  c.code_width_ = c.dict_.empty()
                      ? 1
                      : std::max(1, static_cast<int>(std::bit_width(c.dict_.size() - 1)));
  c.bits_.assign(WordsFor(static_cast<uint64_t>(values.size()) *
                          static_cast<uint64_t>(c.code_width_)),
                 0);
  for (size_t i = 0; i < values.size(); ++i) {
    auto it = std::lower_bound(c.dict_.begin(), c.dict_.end(), values[i]);
    uint64_t code = static_cast<uint64_t>(it - c.dict_.begin());
    WriteBits(&c.bits_, static_cast<uint64_t>(i) * c.code_width_,
              c.code_width_, code);
  }
  return c;
}

inline EncodedColumn EncodedColumn::EncodeFor(const std::vector<int64_t>& values) {
  EncodedColumn c;
  c.encoding_ = Encoding::kFor;
  c.size_ = values.size();
  const size_t blocks = (values.size() + kBlock - 1) / kBlock;
  c.for_bases_.resize(blocks);
  c.for_offsets_.resize(blocks);
  c.for_widths_.resize(blocks);
  uint64_t bit = 0;
  for (size_t b = 0; b < blocks; ++b) {
    size_t lo = b * kBlock;
    size_t hi = std::min(values.size(), lo + kBlock);
    int64_t mn = values[lo], mx = values[lo];
    for (size_t i = lo + 1; i < hi; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    uint64_t range = DeltaOf(mx, mn);
    int width = range == 0 ? 0 : static_cast<int>(std::bit_width(range));
    c.for_bases_[b] = mn;
    c.for_offsets_[b] = bit;
    c.for_widths_[b] = static_cast<uint8_t>(width);
    bit += static_cast<uint64_t>(width) * (hi - lo);
  }
  c.bits_.assign(WordsFor(bit), 0);
  for (size_t b = 0; b < blocks; ++b) {
    size_t lo = b * kBlock;
    size_t hi = std::min(values.size(), lo + kBlock);
    int width = c.for_widths_[b];
    uint64_t pos = c.for_offsets_[b];
    for (size_t i = lo; i < hi; ++i) {
      WriteBits(&c.bits_, pos, width, DeltaOf(values[i], c.for_bases_[b]));
      pos += static_cast<uint64_t>(width);
    }
  }
  return c;
}

inline EncodedColumn EncodedColumn::EncodeAs(Encoding encoding,
                                      const std::vector<int64_t>& values) {
  switch (encoding) {
    case Encoding::kPlain: return EncodePlain(values);
    case Encoding::kRle: return EncodeRle(values);
    case Encoding::kDict: return EncodeDict(values);
    case Encoding::kFor: return EncodeFor(values);
  }
  return EncodePlain(values);
}

inline EncodedColumn EncodedColumn::Encode(const std::vector<int64_t>& values) {
  if (values.empty()) return EncodePlain(values);
  ColumnStats stats = Analyze(values);

  const size_t plain_bytes = values.size() * sizeof(int64_t);
  const size_t rle_bytes = stats.runs * (sizeof(int64_t) + sizeof(uint64_t));
  size_t dict_bytes = SIZE_MAX;
  if (stats.distinct <= kDictMaxCard) {
    int cw = std::max(1, static_cast<int>(std::bit_width(stats.distinct - 1)));
    dict_bytes = stats.distinct * sizeof(int64_t) +
                 WordsFor(static_cast<uint64_t>(values.size()) * cw) * 8;
  }
  // Exact FOR size from per-block ranges (one extra cheap pass).
  uint64_t for_bits = 0;
  const size_t blocks = (values.size() + kBlock - 1) / kBlock;
  for (size_t b = 0; b < blocks; ++b) {
    size_t lo = b * kBlock;
    size_t hi = std::min(values.size(), lo + kBlock);
    int64_t mn = values[lo], mx = values[lo];
    for (size_t i = lo + 1; i < hi; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    uint64_t range = DeltaOf(mx, mn);
    for_bits += static_cast<uint64_t>(range == 0 ? 0 : std::bit_width(range)) *
                (hi - lo);
  }
  const size_t for_bytes =
      blocks * (sizeof(int64_t) + sizeof(uint64_t) + 1) + WordsFor(for_bits) * 8;

  // Smallest representation wins; ties break toward the cheaper decoder
  // (RLE < dict < FOR < plain). Deterministic by construction.
  Encoding best = Encoding::kRle;
  size_t best_bytes = rle_bytes;
  if (dict_bytes < best_bytes) {
    best = Encoding::kDict;
    best_bytes = dict_bytes;
  }
  if (for_bytes < best_bytes) {
    best = Encoding::kFor;
    best_bytes = for_bytes;
  }
  if (plain_bytes < best_bytes) best = Encoding::kPlain;
  return EncodeAs(best, values);
}

inline size_t EncodedColumn::encoded_bytes() const {
  switch (encoding_) {
    case Encoding::kPlain:
      return plain_.size() * sizeof(int64_t);
    case Encoding::kRle:
      return rle_values_.size() * sizeof(int64_t) +
             rle_ends_.size() * sizeof(uint64_t);
    case Encoding::kDict:
      return dict_.size() * sizeof(int64_t) + bits_.size() * sizeof(uint64_t);
    case Encoding::kFor:
      return for_bases_.size() * sizeof(int64_t) +
             for_offsets_.size() * sizeof(uint64_t) + for_widths_.size() +
             bits_.size() * sizeof(uint64_t);
  }
  return 0;
}

inline uint64_t EncodedColumn::RepresentationDigest() const {
  uint64_t h = HashCombine(static_cast<uint64_t>(encoding_), size_);
  h = HashCombine(h, static_cast<uint64_t>(code_width_));
  auto add = [&h](const auto& vec) {
    h = HashCombine(h, vec.size());
    for (auto v : vec) h = HashCombine(h, static_cast<uint64_t>(v));
  };
  add(plain_);
  add(rle_values_);
  add(rle_ends_);
  add(dict_);
  add(for_bases_);
  add(for_offsets_);
  add(for_widths_);
  add(bits_);
  return h;
}

}  // namespace lpa::storage::legacy
