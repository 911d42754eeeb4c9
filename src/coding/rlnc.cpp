#include "coding/rlnc.hpp"

#include <algorithm>
#include <cstring>

namespace nrn::coding {

RlncState::RlncState(std::size_t k, std::size_t block_len)
    : k_(k),
      block_len_(block_len),
      field_(Gf256::instance()),
      rows_(k * k, 0),
      payloads_(k * block_len, 0),
      coeff_scratch_(k, 0),
      payload_scratch_(block_len, 0) {
  NRN_EXPECTS(k >= 1, "RLNC dimension must be positive");
  pivots_.reserve(k);
}

void RlncState::seed_source(
    const std::vector<std::vector<std::uint8_t>>& messages) {
  NRN_EXPECTS(rank() == 0, "seed_source on a non-empty state");
  if (block_len_ > 0) {
    NRN_EXPECTS(messages.size() == k_, "need one payload per message");
    for (const auto& m : messages)
      NRN_EXPECTS(m.size() == block_len_, "payload length mismatch");
  } else {
    NRN_EXPECTS(messages.empty(), "payloads given in coefficient-only mode");
  }
  std::fill(rows_.begin(), rows_.end(), 0);
  for (std::size_t i = 0; i < k_; ++i) {
    pivots_.push_back(i);
    row_mut(i)[i] = 1;
    if (block_len_ > 0)
      std::copy(messages[i].begin(), messages[i].end(), payload_row(i));
  }
}

bool RlncState::absorb(const RlncPacket& packet) {
  NRN_EXPECTS(packet.coeffs.size() == k_, "coefficient vector length mismatch");
  if (block_len_ > 0)
    NRN_EXPECTS(packet.payload.size() == block_len_, "payload length mismatch");
  return absorb(packet.coeffs.data(), packet.payload.data());
}

bool RlncState::absorb(const std::uint8_t* coeffs,
                       const std::uint8_t* payload) {
  std::uint8_t* c = coeff_scratch_.data();
  std::uint8_t* p = payload_scratch_.data();
  std::memcpy(c, coeffs, k_);
  if (block_len_ > 0) std::memcpy(p, payload, block_len_);

  // Eliminate against existing pivots.  Row i is zero left of its pivot,
  // so the row operation starts there.
  const std::size_t r = rank();
  for (std::size_t i = 0; i < r; ++i) {
    const std::size_t piv = pivots_[i];
    const std::uint8_t f = c[piv];
    if (f == 0) continue;
    field_.axpy(c + piv, row(i) + piv, f, k_ - piv);
    field_.axpy(p, payload_row(i), f, block_len_);
  }

  // Find the new pivot.
  const std::size_t pivot = static_cast<std::size_t>(
      std::find_if(c, c + k_, [](std::uint8_t x) { return x != 0; }) - c);
  if (pivot == k_) return false;  // dependent packet

  // Normalize; c is zero left of the pivot.
  const std::uint8_t inv = field_.inv(c[pivot]);
  field_.scale(c + pivot, inv, k_ - pivot);
  field_.scale(p, inv, block_len_);

  // Back-eliminate existing rows to maintain reduced echelon form.
  for (std::size_t i = 0; i < r; ++i) {
    const std::uint8_t f = row(i)[pivot];
    if (f == 0) continue;
    field_.axpy(row_mut(i) + pivot, c + pivot, f, k_ - pivot);
    field_.axpy(payload_row(i), p, f, block_len_);
  }

  // Insert keeping pivot order: shift rows [pos, r) down one slot.
  const auto pos = static_cast<std::size_t>(
      std::lower_bound(pivots_.begin(), pivots_.end(), pivot) -
      pivots_.begin());
  pivots_.insert(pivots_.begin() + static_cast<std::ptrdiff_t>(pos), pivot);
  std::memmove(row_mut(pos + 1), row(pos), (r - pos) * k_);
  std::memcpy(row_mut(pos), c, k_);
  if (block_len_ > 0) {
    std::memmove(payload_row(pos + 1), payload_row(pos),
                 (r - pos) * block_len_);
    std::memcpy(payload_row(pos), p, block_len_);
  }
  return true;
}

void RlncState::draw(Rng& rng, std::uint8_t* lambda) const {
  NRN_EXPECTS(rank() >= 1, "emit from an empty RLNC state");
  // Random nonzero combination of basis rows (resample the all-zero draw).
  bool nonzero = false;
  while (!nonzero) {
    for (std::size_t i = 0; i < rank(); ++i) {
      lambda[i] = static_cast<std::uint8_t>(rng.next_below(256));
      nonzero = nonzero || (lambda[i] != 0);
    }
  }
}

void RlncState::combine(const std::uint8_t* lambda, std::uint8_t* coeffs,
                        std::uint8_t* payload) const {
  std::memset(coeffs, 0, k_);
  if (block_len_ > 0) std::memset(payload, 0, block_len_);
  for (std::size_t i = 0; i < rank(); ++i) {
    const std::uint8_t l = lambda[i];
    if (l == 0) continue;
    const std::size_t piv = pivots_[i];
    field_.axpy(coeffs + piv, row(i) + piv, l, k_ - piv);
    field_.axpy(payload, payload_row(i), l, block_len_);
  }
}

RlncPacket RlncState::emit(Rng& rng) const {
  std::vector<std::uint8_t> lambda(rank());
  draw(rng, lambda.data());
  RlncPacket pkt{std::vector<std::uint8_t>(k_),
                 std::vector<std::uint8_t>(block_len_)};
  combine(lambda.data(), pkt.coeffs.data(), pkt.payload.data());
  return pkt;
}

std::vector<std::vector<std::uint8_t>> RlncState::decode() const {
  NRN_EXPECTS(block_len_ > 0, "decode requires payload mode");
  NRN_EXPECTS(complete(), "decode requires full rank");
  // Full-rank reduced echelon form over k columns is the identity, with
  // pivots_ = 0..k-1, so payload rows are the messages in order.
  std::vector<std::vector<std::uint8_t>> messages(k_);
  for (std::size_t i = 0; i < k_; ++i)
    messages[i].assign(payload_row(i), payload_row(i) + block_len_);
  return messages;
}

}  // namespace nrn::coding
