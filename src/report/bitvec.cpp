#include "report/bitvec.hpp"

#include <bit>

#include "core/check.hpp"

namespace mci::report {

BitVec::BitVec(std::size_t bits) : size_(bits), words_((bits + 63) / 64, 0) {}

void BitVec::assign(std::size_t bits) {
  size_ = bits;
  // MCI-ANALYZE-ALLOW(hot-path-alloc): vector::assign keeps capacity;
  words_.assign((bits + 63) / 64, 0);  // grows to high-water mark only
}

void BitVec::set(std::size_t i) {
  MCI_DCHECK(i < size_);
  words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
}

void BitVec::reset(std::size_t i) {
  MCI_DCHECK(i < size_);
  words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

bool BitVec::test(std::size_t i) const {
  MCI_DCHECK(i < size_);
  return (words_[i >> 6] >> (i & 63)) & 1;
}

std::size_t BitVec::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t BitVec::rank(std::size_t i) const {
  MCI_DCHECK(i <= size_);
  std::size_t n = 0;
  const std::size_t fullWords = i >> 6;
  for (std::size_t w = 0; w < fullWords; ++w) {
    n += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  const std::size_t rem = i & 63;
  if (rem != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << rem) - 1;
    n += static_cast<std::size_t>(std::popcount(words_[fullWords] & mask));
  }
  return n;
}

std::size_t BitVec::select(std::size_t k) const {
  std::size_t seen = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const auto pc = static_cast<std::size_t>(std::popcount(words_[w]));
    if (seen + pc <= k) {
      seen += pc;
      continue;
    }
    // The k-th set bit is inside this word.
    std::uint64_t word = words_[w];
    for (std::size_t target = k - seen;; --target) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      if (target == 0) return (w << 6) + bit;
      word &= word - 1;  // clear lowest set bit
    }
  }
  return size_;
}

std::vector<std::size_t> BitVec::setPositions() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      out.push_back((w << 6) + bit);
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace mci::report
