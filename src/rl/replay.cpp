#include "rl/replay.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace lpa::rl {

namespace {

constexpr uint64_t kOneBits = 0x3FF0000000000000ULL;  // +1.0

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

void ReplayBuffer::Add(const Transition& t) {
  LPA_CHECK(capacity_ > 0);
  Row row;
  Classify(t.state_enc);
  if (!rows_.empty() && Matches(rows_[newest_].next)) {
    row.state = rows_[newest_].next;
  } else {
    row.state = AppendClassified();
  }
  Classify(t.next_enc);
  row.next = AppendClassified();
  row.legal = AppendLegal(t.next_legal);
  row.reward = t.reward;
  row.action_id = t.action_id;
  if (rows_.size() < capacity_) {
    newest_ = rows_.size();
    rows_.push_back(row);
    return;
  }
  newest_ = next_;
  rows_[next_] = row;
  next_ = (next_ + 1) % capacity_;
  // The oldest row now sits at next_; nothing before its s's value run is
  // referenced any more.
  begin_ = word(rows_[next_].state);
}

std::vector<size_t> ReplayBuffer::Sample(size_t count, Rng* rng) const {
  std::vector<size_t> result;
  Sample(count, rng, &result);
  return result;
}

void ReplayBuffer::Sample(size_t count, Rng* rng,
                          std::vector<size_t>* out) const {
  LPA_CHECK(!rows_.empty());
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out->push_back(static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(rows_.size()) - 1)));
  }
}

Transition ReplayBuffer::at(size_t row) const {
  Transition t;
  t.state_enc.resize(state_dim(row));
  DecodeState(row, t.state_enc.data());
  t.action_id = action_id(row);
  t.reward = reward(row);
  t.next_enc.resize(next_dim(row));
  DecodeNextState(row, t.next_enc.data());
  t.next_legal.reserve(next_legal_count(row));
  ForEachNextLegal(row, [&t](int id) { t.next_legal.push_back(id); });
  return t;
}

// State record: [run offset][ones bitset, ceil(dim / 64) words].
// Run record: [dim | count << 32][positions, two uint32 per word][bits].
void ReplayBuffer::DecodeStateAt(uint64_t state, double* dst) const {
  const uint64_t run = word(state);
  const uint64_t head = word(run);
  const uint64_t dim = static_cast<uint32_t>(head);
  const uint64_t count = head >> 32;
  std::fill(dst, dst + dim, 0.0);
  for (uint64_t w = 0; w < (dim + 63) / 64; ++w) {
    for (uint64_t bits = word(state + 1 + w); bits != 0; bits &= bits - 1) {
      dst[w * 64 + std::countr_zero(bits)] = 1.0;
    }
  }
  const uint64_t values = run + 1 + (count + 1) / 2;
  for (uint64_t k = 0; k < count; ++k) {
    const uint64_t pos =
        static_cast<uint32_t>(word(run + 1 + k / 2) >> (32 * (k % 2)));
    const uint64_t bits = word(values + k);
    std::memcpy(dst + pos, &bits, sizeof(bits));
  }
}

void ReplayBuffer::Classify(const std::vector<double>& enc) {
  LPA_CHECK(enc.size() <= UINT32_MAX);
  const uint64_t dim = enc.size();
  Encoding& e = encoding_;
  e.pos.clear();
  e.bits.clear();
  e.ones.assign((dim + 63) / 64, 0);
  for (size_t i = 0; i < enc.size(); ++i) {
    const uint64_t bits = Bits(enc[i]);
    if (bits == kOneBits) {
      e.ones[i / 64] |= uint64_t{1} << (i % 64);
    } else if (bits != 0) {
      e.pos.push_back(static_cast<uint32_t>(i));
      e.bits.push_back(bits);
    }
  }
  e.head = dim | (uint64_t{e.pos.size()} << 32);
}

bool ReplayBuffer::RunMatches(uint64_t run) const {
  const Encoding& e = encoding_;
  if (word(run) != e.head) return false;
  const uint64_t count = e.pos.size();
  const uint64_t values = run + 1 + (count + 1) / 2;
  for (uint64_t k = 0; k < count; ++k) {
    if (static_cast<uint32_t>(word(run + 1 + k / 2) >> (32 * (k % 2))) !=
            e.pos[k] ||
        word(values + k) != e.bits[k]) {
      return false;
    }
  }
  return true;
}

bool ReplayBuffer::Matches(uint64_t state) const {
  if (!RunMatches(word(state))) return false;
  for (size_t w = 0; w < encoding_.ones.size(); ++w) {
    if (word(state + 1 + w) != encoding_.ones[w]) return false;
  }
  return true;
}

void ReplayBuffer::Reserve(size_t n) {
  const uint64_t live = end_ - begin_;
  if (live + n <= words_.size()) return;
  size_t cap = std::max<size_t>(words_.size(), 64);
  while (cap < live + n) cap *= 2;
  std::vector<uint64_t> grown(cap);
  for (uint64_t at = begin_; at < end_; ++at) {
    grown[at & (cap - 1)] = word(at);
  }
  words_.swap(grown);
  mask_ = cap - 1;
}

uint64_t ReplayBuffer::AppendClassified() {
  const Encoding& e = encoding_;
  const uint64_t count = e.pos.size();
  // The last stored state's run is still live: the newest row holds it.
  const bool shared = end_ > begin_ && RunMatches(last_run_);
  Reserve((shared ? 0 : 1 + (count + 1) / 2 + count) + 1 + e.ones.size());
  if (!shared) {
    last_run_ = end_;
    Push(e.head);
    for (uint64_t k = 0; k < count; k += 2) {
      Push(e.pos[k] | (k + 1 < count ? uint64_t{e.pos[k + 1]} << 32 : 0));
    }
    for (uint64_t bits : e.bits) Push(bits);
  }
  const uint64_t state = end_;
  Push(last_run_);
  for (uint64_t ones : e.ones) Push(ones);
  return state;
}

uint64_t ReplayBuffer::AppendLegal(const std::vector<int>& legal) {
  LPA_CHECK(legal.size() <= INT32_MAX);
  const uint64_t count = legal.size();
  const uint64_t list_words = (count + 1) / 2;
  bool ascending = legal.empty() || legal[0] >= 0;
  for (size_t i = 1; ascending && i < legal.size(); ++i) {
    ascending = legal[i] > legal[i - 1];
  }
  const uint64_t bitset_words =
      legal.empty() ? 0 : static_cast<uint64_t>(legal.back()) / 64 + 1;
  const uint64_t at = end_;
  if (ascending && bitset_words <= list_words) {
    Reserve(1 + bitset_words);
    Push(kLegalBitset | (bitset_words << 32) | count);
    size_t i = 0;
    for (uint64_t w = 0; w < bitset_words; ++w) {
      uint64_t bits = 0;
      for (; i < legal.size() && static_cast<uint64_t>(legal[i]) / 64 == w;
           ++i) {
        bits |= uint64_t{1} << (static_cast<uint64_t>(legal[i]) % 64);
      }
      Push(bits);
    }
    return at;
  }
  Reserve(1 + list_words);
  Push(count);
  for (uint64_t k = 0; k < count; k += 2) {
    Push(static_cast<uint32_t>(legal[k]) |
         (k + 1 < count ? uint64_t{static_cast<uint32_t>(legal[k + 1])} << 32
                        : 0));
  }
  return at;
}

}  // namespace lpa::rl
