#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lpa::storage {

/// \brief Lightweight per-column encodings for the columnar store.
///
/// All column data are int64 surrogates, so four simple schemes cover the
/// testbeds (see docs/INTERNALS.md §11):
///  - kPlain: the raw vector (always-valid fallback).
///  - kRle:   run-length (value, cumulative end) pairs for long constant
///            runs (e.g. a column of one repeated status code).
///  - kDict:  sorted unique value dictionary + bitpacked codes for
///            low-cardinality columns (e.g. `district_id`).
///  - kFor:   frame-of-reference blocks — per 1024-value block the minimum
///            is stored and every value is bitpacked as a delta from it.
///            Sorted / near-sorted key columns and rids compress to a few
///            bits per value.
enum class Encoding : uint8_t { kPlain = 0, kRle = 1, kDict = 2, kFor = 3 };

const char* EncodingName(Encoding e);

/// \brief Simple statistics that drive the encoding chooser, all from the
/// encoder's one pass over the column (docs/INTERNALS.md §11).
struct ColumnStats {
  size_t values = 0;
  size_t runs = 0;      ///< number of maximal constant runs
  size_t distinct = 0;  ///< exact up to kDictMaxCard, else kDictMaxCard + 1
  bool sorted = true;   ///< non-decreasing
  int64_t min = 0;
  int64_t max = 0;
};

/// \brief One immutable encoded column. Encoding is lossless and
/// deterministic: Decode() always reproduces the input vector exactly, so
/// kernels reading through EncodedColumn are bit-identical to kernels
/// reading the plain vector.
class EncodedColumn {
 public:
  /// Frame-of-reference block size and the granularity of block-at-a-time
  /// decode (the engine's scratch buffers are sized to this).
  static constexpr size_t kBlock = 1024;
  /// Maximum dictionary cardinality the chooser will consider.
  static constexpr size_t kDictMaxCard = size_t{1} << 16;

  EncodedColumn() = default;  ///< empty plain column

  /// \brief The chooser's statistics: the pass Encode runs, without the
  /// encoding.
  static ColumnStats Analyze(const std::vector<int64_t>& values);

  /// \brief Encode with the stats-driven chooser: one pass over the column
  /// gives every candidate encoding's exact size and the smallest
  /// representation wins (kPlain is always a candidate, so every column has
  /// a valid encoding).
  static EncodedColumn Encode(const std::vector<int64_t>& values);

  /// \brief Force a specific encoding (round-trip tests, benchmarks).
  /// kDict requires at most kDictMaxCard distinct values.
  static EncodedColumn EncodeAs(Encoding encoding,
                                const std::vector<int64_t>& values);

  /// \brief Hand the calling thread's encoder scratch back to the OS. The
  /// scratch (at most 2 MiB) is reused from column to column;
  /// TableData::Seal calls this after a table's last column, so none of it
  /// stays resident between tables.
  static void ReleaseScratch();

  Encoding encoding() const { return encoding_; }
  size_t size() const { return size_; }
  /// Actual resident heap bytes of this representation.
  size_t encoded_bytes() const;
  /// Bytes the plain int64 vector would occupy.
  size_t raw_bytes() const { return size_ * sizeof(int64_t); }
  /// \brief Hash of the whole representation: the encoding, the size, the
  /// code width and every member vector (length and contents). Equal digests
  /// mean equal bytes; the golden encoder test pins encoders with it.
  uint64_t RepresentationDigest() const;

  /// \brief Random access (O(1) for plain/dict/FOR, O(log runs) for RLE).
  int64_t At(size_t i) const;

  /// \brief Decode `count` values starting at `start` into `out`.
  void DecodeRange(size_t start, size_t count, int64_t* out) const;

  /// \brief Full decode (exactly the vector that was encoded).
  std::vector<int64_t> Decode() const;

  /// \brief out[k] = value(idx[k]) for ascending `idx`. FOR gathers decode
  /// block-at-a-time through `scratch` (reused across calls); dict gathers
  /// read codes directly; RLE gathers walk the run cursor.
  void Gather(const uint32_t* idx, size_t count, int64_t* out,
              std::vector<int64_t>* scratch) const;

  // --- Dictionary access (valid iff encoding() == kDict) ------------------

  /// Sorted unique values; a code is an index into this vector.
  const std::vector<int64_t>& dict() const { return dict_; }
  /// \brief Decode `count` codes starting at `start`. Encoding-aware kernels
  /// (shard routing, code-space predicates) work per distinct value instead
  /// of per row through this.
  void DecodeCodes(size_t start, size_t count, uint32_t* out) const;

 private:
  /// The one-pass encoder (encoded_column.cpp).
  class Encoder;

  static uint64_t ReadBits(const uint64_t* words, uint64_t bit_pos, int width);

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

}  // namespace lpa::storage
