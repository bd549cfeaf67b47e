#include "storage/encoded_column.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>

#include "util/hash.h"
#include "util/logging.h"

namespace lpa::storage {

namespace {

/// Deltas are computed in uint64 space so that min == INT64_MIN and friends
/// round-trip without signed overflow (two's complement wraparound is exact).
uint64_t DeltaOf(int64_t value, int64_t base) {
  return static_cast<uint64_t>(value) - static_cast<uint64_t>(base);
}

int64_t Rebase(int64_t base, uint64_t delta) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) + delta);
}

size_t WordsFor(uint64_t bits) { return static_cast<size_t>((bits + 63) / 64); }

/// Bits per dictionary code (at least one, as ReadBits needs a width).
int CodeWidth(size_t cardinality) {
  return cardinality <= 1 ? 1
                          : static_cast<int>(std::bit_width(cardinality - 1));
}

/// Set bits of `x`. std::popcount compiles to a library call without
/// -mpopcnt, and the rank lookup runs once per row.
int PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Distinct values of an unsorted column go into a bitmap over [min, max]
/// when that range holds at most kBitmapBitsPerRow values per row and at
/// most kBitmapMaxBits values; otherwise into an open-addressing set of
/// bit_ceil(1.5 m) slots for m = min(rows, kDictMaxCard + 1), so the set is
/// never more than 2/3 full.
constexpr uint64_t kBitmapBitsPerRow = 8;
constexpr uint64_t kBitmapMaxBits = uint64_t{1} << 22;
constexpr size_t kSetMaxSlots = size_t{1} << 17;
static_assert(kSetMaxSlots == std::bit_ceil((EncodedColumn::kDictMaxCard + 1) *
                                            3 / 2));

/// Writes fixed-width fields a word at a time in ReadBits' layout: field
/// after field from bit 0, low bits first, straddling word boundaries.
class BitPacker {
 public:
  explicit BitPacker(uint64_t* out) : out_(out) {}

  /// `value` < 2^width, 0 < width <= 64.
  void Put(uint64_t value, int width) {
    acc_ |= value << fill_;
    fill_ += width;
    if (fill_ >= 64) {
      *out_++ = acc_;
      fill_ -= 64;
      acc_ = fill_ == 0 ? 0 : value >> (width - fill_);
    }
  }

  /// Stores the partial last word, if any.
  void Flush() {
    if (fill_ > 0) *out_ = acc_;
  }

 private:
  uint64_t* out_;
  uint64_t acc_ = 0;
  int fill_ = 0;
};

/// A fixed-capacity array of trivially copyable T in its own anonymous
/// mapping, made once and reused. Release() hands the pages used since the
/// last release back to the OS, and the array never passes through the
/// malloc heap.
template <typename T>
class PageArray {
 public:
  explicit PageArray(size_t capacity) : bytes_(capacity * sizeof(T)) {
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    LPA_CHECK(p != MAP_FAILED);
    data_ = static_cast<T*>(p);
  }
  ~PageArray() { munmap(data_, bytes_); }
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;

  /// Sets the size to `n`, at most the capacity; the elements' values are
  /// unspecified.
  void Resize(size_t n) {
    LPA_CHECK(n * sizeof(T) <= bytes_);
    size_ = n;
    used_ = std::max(used_, n);
  }
  void Assign(size_t n, T value) {
    Resize(n);
    std::fill_n(data_, n, value);
  }
  void Release() {
    if (used_ > 0) madvise(data_, used_ * sizeof(T), MADV_DONTNEED);
    size_ = used_ = 0;
  }

  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  size_t bytes_;
  size_t size_ = 0;
  size_t used_ = 0;  ///< largest size since the last Release
};

/// Scratch of the encoder, one per thread and reused across columns (a
/// table's columns are sealed one after another on one thread). The
/// distinct structures are mapped at their bounds, 2 MiB in all, and their
/// pages are released by ReleaseScratch once the table is sealed. The
/// per-block arrays grow with the longest column (9 bytes per 1024 rows).
struct Scratch {
  std::vector<int64_t> block_base;   // FOR: per-block minimum
  std::vector<uint8_t> block_width;  // FOR: per-block bits per delta
  PageArray<uint64_t> bitmap{kBitmapMaxBits / 64};  // bit (value - min)
  PageArray<uint32_t> rank{kBitmapMaxBits / 64};  // set bits in words before
  PageArray<int64_t> slots{kSetMaxSlots};  // the set; `min` marks free slots
  PageArray<uint16_t> slot_code{kSetMaxSlots};  // dictionary code per slot

  void Release() {
    bitmap.Release();
    rank.Release();
    slots.Release();
    slot_code.Release();
  }
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace

const char* EncodingName(Encoding e) {
  switch (e) {
    case Encoding::kPlain: return "plain";
    case Encoding::kRle: return "rle";
    case Encoding::kDict: return "dict";
    case Encoding::kFor: return "for";
  }
  return "?";
}

uint64_t EncodedColumn::ReadBits(const uint64_t* words, uint64_t bit_pos,
                                 int width) {
  if (width == 0) return 0;
  size_t word = static_cast<size_t>(bit_pos >> 6);
  int off = static_cast<int>(bit_pos & 63);
  uint64_t v = words[word] >> off;
  if (off + width > 64) v |= words[word + 1] << (64 - off);
  if (width >= 64) return v;
  return v & ((uint64_t{1} << width) - 1);
}

/// One pass over a non-empty column computes min/max, runs, sortedness and
/// the per-block FOR ranges; a second loop counts distinct values exactly up
/// to kDictMaxCard + 1 (free for sorted columns: one per run). Build() then
/// writes any encoding from what the passes learned.
class EncodedColumn::Encoder {
 public:
  explicit Encoder(const std::vector<int64_t>& values)
      : values_(values), scratch_(ThreadScratch()) {
    Scan();
    CountDistinct();
  }

  const ColumnStats& stats() const { return stats_; }

  /// Exact encoded_bytes() of each candidate; SIZE_MAX for a dictionary
  /// over more than kDictMaxCard values.
  size_t Bytes(Encoding encoding) const {
    const size_t n = values_.size();
    switch (encoding) {
      case Encoding::kPlain:
        return n * sizeof(int64_t);
      case Encoding::kRle:
        return stats_.runs * (sizeof(int64_t) + sizeof(uint64_t));
      case Encoding::kDict:
        if (stats_.distinct > kDictMaxCard) return SIZE_MAX;
        return stats_.distinct * sizeof(int64_t) +
               WordsFor(static_cast<uint64_t>(n) *
                        static_cast<uint64_t>(CodeWidth(stats_.distinct))) *
                   8;
      case Encoding::kFor:
        return scratch_.block_base.size() *
                   (sizeof(int64_t) + sizeof(uint64_t) + 1) +
               WordsFor(for_bits_) * 8;
    }
    return SIZE_MAX;
  }

  EncodedColumn Build(Encoding encoding) const {
    EncodedColumn c;
    c.encoding_ = encoding;
    c.size_ = values_.size();
    switch (encoding) {
      case Encoding::kPlain:
        c.plain_ = values_;
        c.plain_.shrink_to_fit();
        break;
      case Encoding::kRle:
        BuildRle(&c);
        break;
      case Encoding::kDict:
        LPA_CHECK(stats_.distinct <= kDictMaxCard);
        BuildDict(&c);
        break;
      case Encoding::kFor:
        BuildFor(&c);
        break;
    }
    return c;
  }

 private:
  enum class Tracker { kRuns, kBitmap, kSet };

  void Scan() {
    const int64_t* v = values_.data();
    const size_t n = values_.size();
    const size_t blocks = (n + kBlock - 1) / kBlock;
    scratch_.block_base.resize(blocks);
    scratch_.block_width.resize(blocks);
    size_t runs = 1;
    bool sorted = true;
    int64_t prev = v[0];
    int64_t lo_all = v[0], hi_all = v[0];
    for (size_t b = 0; b < blocks; ++b) {
      const size_t lo = b * kBlock;
      const size_t hi = std::min(n, lo + kBlock);
      int64_t mn = v[lo], mx = v[lo];
      for (size_t i = lo; i < hi; ++i) {
        const int64_t x = v[i];
        runs += x != prev;
        sorted &= x >= prev;
        prev = x;
        mn = std::min(mn, x);
        mx = std::max(mx, x);
      }
      const uint64_t range = DeltaOf(mx, mn);
      const int width = static_cast<int>(std::bit_width(range));
      scratch_.block_base[b] = mn;
      scratch_.block_width[b] = static_cast<uint8_t>(width);
      for_bits_ += static_cast<uint64_t>(width) * (hi - lo);
      lo_all = std::min(lo_all, mn);
      hi_all = std::max(hi_all, mx);
    }
    stats_.values = n;
    stats_.runs = runs;
    stats_.sorted = sorted;
    stats_.min = lo_all;
    stats_.max = hi_all;
  }

  void CountDistinct() {
    constexpr size_t kCapped = kDictMaxCard + 1;
    if (stats_.sorted) {
      tracker_ = Tracker::kRuns;
      stats_.distinct = std::min(stats_.runs, kCapped);
      return;
    }
    const uint64_t span = DeltaOf(stats_.max, stats_.min);
    if (span < std::min(kBitmapMaxBits, kBitmapBitsPerRow * values_.size())) {
      tracker_ = Tracker::kBitmap;
      auto& bitmap = scratch_.bitmap;
      bitmap.Assign(static_cast<size_t>(span / 64 + 1), 0);
      for (int64_t x : values_) {
        const uint64_t off = DeltaOf(x, stats_.min);
        bitmap[static_cast<size_t>(off >> 6)] |= uint64_t{1} << (off & 63);
      }
      size_t count = 0;
      for (uint64_t word : bitmap) count += static_cast<size_t>(PopCount(word));
      stats_.distinct = std::min(count, kCapped);
      return;
    }
    // The set holds every value but the minimum, which is present anyway and
    // marks free slots. Counting stops at kCapped.
    tracker_ = Tracker::kSet;
    const int64_t free = stats_.min;
    const size_t m = std::min(values_.size(), kCapped);
    scratch_.slots.Assign(std::bit_ceil(m + m / 2), free);
    size_t count = 1;
    int64_t prev = free;
    for (int64_t x : values_) {
      if (x == prev) continue;
      prev = x;
      if (x == free) continue;
      const size_t slot = FindSlot(x);
      if (scratch_.slots[slot] == x) continue;
      scratch_.slots[slot] = x;
      if (++count == kCapped) break;
    }
    stats_.distinct = count;
  }

  /// Slot of `x` in the set, or the free slot where it would go.
  size_t FindSlot(int64_t x) const {
    const auto& slots = scratch_.slots;
    const size_t mask = slots.size() - 1;
    size_t slot = static_cast<size_t>(Hash64(static_cast<uint64_t>(x))) & mask;
    while (slots[slot] != x && slots[slot] != stats_.min) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void BuildRle(EncodedColumn* c) const {
    c->rle_values_.reserve(stats_.runs);
    c->rle_ends_.reserve(stats_.runs);
    int64_t prev = values_[0];
    c->rle_values_.push_back(prev);
    for (size_t i = 1; i < values_.size(); ++i) {
      if (values_[i] != prev) {
        c->rle_ends_.push_back(i);
        prev = values_[i];
        c->rle_values_.push_back(prev);
      }
    }
    c->rle_ends_.push_back(values_.size());
  }

  /// Sorted dictionary from the distinct tracker, then one code per row: the
  /// run index, the bitmap rank or the set slot's code.
  void BuildDict(EncodedColumn* c) const {
    const size_t n = values_.size();
    const int width = CodeWidth(stats_.distinct);
    c->code_width_ = width;
    c->bits_.resize(
        WordsFor(static_cast<uint64_t>(n) * static_cast<uint64_t>(width)));
    auto& dict = c->dict_;
    dict.reserve(stats_.distinct);
    BitPacker packer(c->bits_.data());
    const int64_t min = stats_.min;
    switch (tracker_) {
      case Tracker::kRuns: {
        int64_t prev = values_[0];
        dict.push_back(prev);
        uint64_t code = 0;
        for (int64_t x : values_) {
          if (x != prev) {
            prev = x;
            dict.push_back(x);
            ++code;
          }
          packer.Put(code, width);
        }
        break;
      }
      case Tracker::kBitmap: {
        const auto& bitmap = scratch_.bitmap;
        auto& rank = scratch_.rank;
        rank.Resize(bitmap.size());
        uint32_t before = 0;
        for (size_t w = 0; w < bitmap.size(); ++w) {
          rank[w] = before;
          for (uint64_t bits = bitmap[w]; bits != 0; bits &= bits - 1) {
            dict.push_back(Rebase(
                min, static_cast<uint64_t>(w) * 64 +
                         static_cast<uint64_t>(std::countr_zero(bits))));
          }
          before = static_cast<uint32_t>(dict.size());
        }
        for (int64_t x : values_) {
          const uint64_t off = DeltaOf(x, min);
          const size_t w = static_cast<size_t>(off >> 6);
          const uint64_t below = (uint64_t{1} << (off & 63)) - 1;
          packer.Put(static_cast<uint64_t>(rank[w]) +
                         static_cast<uint64_t>(PopCount(bitmap[w] & below)),
                     width);
        }
        break;
      }
      case Tracker::kSet: {
        const auto& slots = scratch_.slots;
        dict.push_back(min);
        for (int64_t x : slots) {
          if (x != min) dict.push_back(x);
        }
        std::sort(dict.begin(), dict.end());
        auto& slot_code = scratch_.slot_code;
        slot_code.Resize(slots.size());
        for (size_t code = 1; code < dict.size(); ++code) {
          slot_code[FindSlot(dict[code])] = static_cast<uint16_t>(code);
        }
        for (int64_t x : values_) {
          packer.Put(x == min ? 0 : slot_code[FindSlot(x)], width);
        }
        break;
      }
    }
    packer.Flush();
  }

  void BuildFor(EncodedColumn* c) const {
    const size_t blocks = scratch_.block_base.size();
    c->for_bases_.assign(scratch_.block_base.begin(),
                         scratch_.block_base.end());
    c->for_widths_.assign(scratch_.block_width.begin(),
                          scratch_.block_width.end());
    c->for_offsets_.resize(blocks);
    c->bits_.resize(WordsFor(for_bits_));
    BitPacker packer(c->bits_.data());
    uint64_t bit = 0;
    for (size_t b = 0; b < blocks; ++b) {
      const size_t lo = b * kBlock;
      const size_t hi = std::min(values_.size(), lo + kBlock);
      const int width = c->for_widths_[b];
      c->for_offsets_[b] = bit;
      bit += static_cast<uint64_t>(width) * (hi - lo);
      if (width == 0) continue;
      const int64_t base = c->for_bases_[b];
      for (size_t i = lo; i < hi; ++i) {
        packer.Put(DeltaOf(values_[i], base), width);
      }
    }
    packer.Flush();
  }

  const std::vector<int64_t>& values_;
  Scratch& scratch_;
  ColumnStats stats_;
  uint64_t for_bits_ = 0;
  Tracker tracker_ = Tracker::kRuns;
};

void EncodedColumn::ReleaseScratch() { ThreadScratch().Release(); }

ColumnStats EncodedColumn::Analyze(const std::vector<int64_t>& values) {
  if (values.empty()) return ColumnStats{};
  return Encoder(values).stats();
}

EncodedColumn EncodedColumn::EncodeAs(Encoding encoding,
                                      const std::vector<int64_t>& values) {
  if (values.empty()) {
    EncodedColumn c;
    c.encoding_ = encoding;
    if (encoding == Encoding::kDict) c.code_width_ = 1;
    return c;
  }
  return Encoder(values).Build(encoding);
}

EncodedColumn EncodedColumn::Encode(const std::vector<int64_t>& values) {
  if (values.empty()) return EncodeAs(Encoding::kPlain, values);
  const Encoder encoder(values);
  // Smallest representation wins; ties break toward the cheaper decoder
  // (RLE < dict < FOR < plain). Deterministic by construction.
  Encoding best = Encoding::kRle;
  size_t best_bytes = encoder.Bytes(Encoding::kRle);
  for (Encoding e : {Encoding::kDict, Encoding::kFor, Encoding::kPlain}) {
    const size_t bytes = encoder.Bytes(e);
    if (bytes < best_bytes) {
      best = e;
      best_bytes = bytes;
    }
  }
  return encoder.Build(best);
}

size_t EncodedColumn::encoded_bytes() const {
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

uint64_t EncodedColumn::RepresentationDigest() const {
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

int64_t EncodedColumn::At(size_t i) const {
  LPA_CHECK(i < size_);
  switch (encoding_) {
    case Encoding::kPlain:
      return plain_[i];
    case Encoding::kRle: {
      size_t run = static_cast<size_t>(
          std::upper_bound(rle_ends_.begin(), rle_ends_.end(), i) -
          rle_ends_.begin());
      return rle_values_[run];
    }
    case Encoding::kDict: {
      uint64_t code = ReadBits(bits_.data(),
                               static_cast<uint64_t>(i) * code_width_,
                               code_width_);
      return dict_[static_cast<size_t>(code)];
    }
    case Encoding::kFor: {
      size_t b = i / kBlock;
      int width = for_widths_[b];
      uint64_t pos = for_offsets_[b] +
                     static_cast<uint64_t>(i - b * kBlock) * width;
      return Rebase(for_bases_[b], ReadBits(bits_.data(), pos, width));
    }
  }
  return 0;
}

void EncodedColumn::DecodeRange(size_t start, size_t count,
                                int64_t* out) const {
  if (count == 0) return;
  LPA_CHECK(start + count <= size_);
  switch (encoding_) {
    case Encoding::kPlain:
      std::copy(plain_.begin() + static_cast<ptrdiff_t>(start),
                plain_.begin() + static_cast<ptrdiff_t>(start + count), out);
      return;
    case Encoding::kRle: {
      size_t run = static_cast<size_t>(
          std::upper_bound(rle_ends_.begin(), rle_ends_.end(), start) -
          rle_ends_.begin());
      size_t i = start;
      size_t k = 0;
      while (k < count) {
        size_t run_end = static_cast<size_t>(rle_ends_[run]);
        size_t take = std::min(run_end - i, count - k);
        std::fill(out + k, out + k + take, rle_values_[run]);
        k += take;
        i += take;
        ++run;
      }
      return;
    }
    case Encoding::kDict: {
      uint64_t pos = static_cast<uint64_t>(start) * code_width_;
      for (size_t k = 0; k < count; ++k, pos += code_width_) {
        out[k] = dict_[static_cast<size_t>(
            ReadBits(bits_.data(), pos, code_width_))];
      }
      return;
    }
    case Encoding::kFor: {
      size_t i = start;
      size_t k = 0;
      while (k < count) {
        size_t b = i / kBlock;
        size_t block_end = std::min(size_, (b + 1) * kBlock);
        size_t take = std::min(block_end - i, count - k);
        int width = for_widths_[b];
        int64_t base = for_bases_[b];
        uint64_t pos =
            for_offsets_[b] + static_cast<uint64_t>(i - b * kBlock) * width;
        for (size_t j = 0; j < take; ++j, pos += width) {
          out[k + j] = Rebase(base, ReadBits(bits_.data(), pos, width));
        }
        k += take;
        i += take;
      }
      return;
    }
  }
}

std::vector<int64_t> EncodedColumn::Decode() const {
  std::vector<int64_t> out(size_);
  DecodeRange(0, size_, out.data());
  return out;
}

void EncodedColumn::Gather(const uint32_t* idx, size_t count, int64_t* out,
                           std::vector<int64_t>* scratch) const {
  switch (encoding_) {
    case Encoding::kPlain:
      for (size_t k = 0; k < count; ++k) out[k] = plain_[idx[k]];
      return;
    case Encoding::kDict:
      // Codes are O(1) random access; no block decode needed.
      for (size_t k = 0; k < count; ++k) {
        out[k] = dict_[static_cast<size_t>(
            ReadBits(bits_.data(),
                     static_cast<uint64_t>(idx[k]) * code_width_,
                     code_width_))];
      }
      return;
    case Encoding::kRle: {
      // Ascending indices: a forward run cursor never rewinds.
      size_t run = 0;
      for (size_t k = 0; k < count; ++k) {
        while (rle_ends_[run] <= idx[k]) ++run;
        out[k] = rle_values_[run];
      }
      return;
    }
    case Encoding::kFor: {
      // Block-at-a-time: decode each touched block once into the reusable
      // scratch buffer (ascending indices touch each block once).
      size_t cur = SIZE_MAX;
      for (size_t k = 0; k < count; ++k) {
        size_t b = idx[k] / kBlock;
        if (b != cur) {
          size_t lo = b * kBlock;
          size_t len = std::min(size_, lo + kBlock) - lo;
          scratch->resize(kBlock);
          DecodeRange(lo, len, scratch->data());
          cur = b;
        }
        out[k] = (*scratch)[idx[k] - cur * kBlock];
      }
      return;
    }
  }
}

void EncodedColumn::DecodeCodes(size_t start, size_t count,
                                uint32_t* out) const {
  LPA_CHECK(encoding_ == Encoding::kDict);
  LPA_CHECK(start + count <= size_);
  uint64_t pos = static_cast<uint64_t>(start) * code_width_;
  for (size_t k = 0; k < count; ++k, pos += code_width_) {
    out[k] = static_cast<uint32_t>(ReadBits(bits_.data(), pos, code_width_));
  }
}

}  // namespace lpa::storage
