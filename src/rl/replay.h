#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace lpa::rl {

/// \brief One experience-replay transition (s, a, r, s').
struct Transition {
  std::vector<double> state_enc;
  int action_id = -1;
  double reward = 0.0;
  std::vector<double> next_enc;
  /// Legal action ids at s' (needed for max_a' Q(s', a')).
  std::vector<int> next_legal;
};

/// \brief Fixed-capacity ring buffer of transitions with uniform sampling,
/// stored compactly.
///
/// Rows keep the ring semantics of a plain `std::vector<Transition>` ring:
/// appended until `capacity`, then each Add overwrites the oldest row in
/// place, and row indices are storage order, not age order. What a row
/// stores is a fixed record (action, reward, three word offsets) into a
/// FIFO ring of 64-bit words, where the variable-length parts live:
///
///  * A state encoding is a bitset of the entries that are exactly +1.0 by
///    bit pattern, plus a reference to a value run: the dimension and the
///    positions and bit patterns of every entry that is neither +1.0 nor
///    +0.0 (+0.0 is implied). A run equal to the previous stored state's run
///    is shared with it — the featurizer's frequency slots are constant over
///    an episode. Decoding writes every entry back by bit pattern, so any
///    encoding, -0.0, NaN payloads and infinities included, comes back bit
///    for bit.
///  * A transition whose s is bit for bit the previous transition's s'
///    references that stored state instead of storing it again.
///  * `next_legal` is a bitset over action ids when it is strictly ascending
///    and non-negative (as ActionSpace::LegalActions returns it) and the
///    bitset is no longer than the list; otherwise it is kept verbatim, in
///    its order, because the TD target's max scan order decides which NaN
///    wins.
///
/// Every row references words at or after its s's value run, and those
/// offsets grow with insertion order, so evicting the oldest row frees the
/// ring's front up to the new oldest row's run.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity) : capacity_(capacity) {}

  void Add(const Transition& t);
  size_t size() const { return rows_.size(); }
  size_t capacity() const { return capacity_; }

  /// \brief Sample `count` rows uniformly with replacement; returns row
  /// handles (storage-order indices) for the accessors below.
  std::vector<size_t> Sample(size_t count, Rng* rng) const;
  /// \brief The same draws into `out` (cleared first; its capacity is
  /// reused).
  void Sample(size_t count, Rng* rng, std::vector<size_t>* out) const;

  /// \brief The transition stored at `row`, decoded (index is storage
  /// order, not age order).
  Transition at(size_t row) const;

  int action_id(size_t row) const { return rows_[row].action_id; }
  double reward(size_t row) const { return rows_[row].reward; }
  size_t state_dim(size_t row) const { return StateDim(rows_[row].state); }
  size_t next_dim(size_t row) const { return StateDim(rows_[row].next); }
  /// \brief Write s (resp. s') of `row` to `dst[0, dim)`, bit for bit.
  void DecodeState(size_t row, double* dst) const {
    DecodeStateAt(rows_[row].state, dst);
  }
  void DecodeNextState(size_t row, double* dst) const {
    DecodeStateAt(rows_[row].next, dst);
  }
  size_t next_legal_count(size_t row) const {
    return static_cast<uint32_t>(word(rows_[row].legal));
  }
  /// \brief Call `visit(id)` for each legal action id at s', in the order
  /// the transition listed them.
  template <class Visit>
  void ForEachNextLegal(size_t row, Visit&& visit) const;

  /// \brief Bytes of the stored rows and encodings (allocation slack not
  /// counted).
  size_t stored_bytes() const {
    return rows_.size() * sizeof(Row) + (end_ - begin_) * sizeof(uint64_t);
  }

 private:
  struct Row {
    uint64_t state;  ///< word offset of s's state record
    uint64_t next;   ///< word offset of the state record of s'
    uint64_t legal;  ///< word offset of the next_legal record
    double reward;
    int action_id;
  };

  /// Legal-record header: bit 63 set for a bitset, bits 32..62 its word
  /// count, bits 0..31 the number of ids.
  static constexpr uint64_t kLegalBitset = uint64_t{1} << 63;

  uint64_t word(uint64_t at) const { return words_[at & mask_]; }
  size_t StateDim(uint64_t state) const {
    return static_cast<uint32_t>(word(word(state)));
  }
  void DecodeStateAt(uint64_t state, double* dst) const;
  /// Split `enc` into `encoding_`: ones bitset, value run and run header.
  void Classify(const std::vector<double>& enc);
  /// Whether the run record at `run` (resp. the state record at `state`)
  /// holds exactly `encoding_`.
  bool RunMatches(uint64_t run) const;
  bool Matches(uint64_t state) const;
  /// Store `encoding_`, sharing the last stored state's run when equal;
  /// returns the state record's offset.
  uint64_t AppendClassified();
  uint64_t AppendLegal(const std::vector<int>& legal);
  /// Room for `n` more words at the end of the live range.
  void Reserve(size_t n);
  void Push(uint64_t w) { words_[end_++ & mask_] = w; }

  size_t capacity_;
  size_t next_ = 0;  ///< slot the next Add overwrites once full
  std::vector<Row> rows_;
  /// Power-of-two ring of words; live offsets are [begin_, end_), global
  /// and increasing, mapped to slots by `mask_`.
  std::vector<uint64_t> words_;
  uint64_t mask_ = 0;
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  size_t newest_ = 0;  ///< slot of the last added row
  /// Offset of the value run of the last stored state.
  uint64_t last_run_ = 0;
  /// One encoding as Classify splits it: the run header (dim | count << 32),
  /// the run's positions and bit patterns, and the ones bitset.
  struct Encoding {
    uint64_t head = 0;
    std::vector<uint32_t> pos;
    std::vector<uint64_t> bits;
    std::vector<uint64_t> ones;
  };
  Encoding encoding_;
};

template <class Visit>
void ReplayBuffer::ForEachNextLegal(size_t row, Visit&& visit) const {
  const uint64_t at = rows_[row].legal;
  const uint64_t head = word(at);
  if (head & kLegalBitset) {
    const uint64_t words = (head & ~kLegalBitset) >> 32;
    for (uint64_t w = 0; w < words; ++w) {
      for (uint64_t bits = word(at + 1 + w); bits != 0; bits &= bits - 1) {
        visit(static_cast<int>(w * 64 + std::countr_zero(bits)));
      }
    }
    return;
  }
  const uint64_t count = static_cast<uint32_t>(head);
  for (uint64_t k = 0; k < count; ++k) {
    visit(static_cast<int>(
        static_cast<uint32_t>(word(at + 1 + k / 2) >> (32 * (k % 2)))));
  }
}

}  // namespace lpa::rl
