#include "coding/reed_solomon.hpp"

#include <algorithm>
#include <set>

#include "common/contracts.hpp"

namespace nrn::coding {

template <typename Field>
ReedSolomon<Field>::ReedSolomon(std::size_t k, std::size_t block_len)
    : k_(k), block_len_(block_len), field_(Field::instance()) {
  NRN_EXPECTS(k >= 1, "Reed-Solomon requires k >= 1");
  NRN_EXPECTS(k <= max_packets(), "k exceeds the number of evaluation points");
  NRN_EXPECTS(block_len >= 1, "block_len must be positive");
}

template <typename Field>
RsPacket<Field> ReedSolomon<Field>::encode_packet(const Messages& messages,
                                                  std::uint32_t index) const {
  NRN_EXPECTS(messages.size() == k_, "message count mismatch");
  NRN_EXPECTS(index < max_packets(), "packet index exceeds evaluation points");
  for (const auto& m : messages)
    NRN_EXPECTS(m.size() == block_len_, "message block length mismatch");

  const Symbol x = field_.alpha_pow(index);
  Packet pkt;
  pkt.index = index;
  pkt.symbols.assign(block_len_, 0);
  // Sum of x^i * message i: one axpy row per message.
  Symbol xp = 1;
  for (std::size_t i = 0; i < k_; ++i) {
    field_.axpy(pkt.symbols.data(), messages[i].data(), xp, block_len_);
    xp = field_.mul(xp, x);
  }
  return pkt;
}

template <typename Field>
std::vector<RsPacket<Field>> ReedSolomon<Field>::encode(
    const Messages& messages, std::uint32_t count) const {
  std::vector<Packet> packets;
  packets.reserve(count);
  for (std::uint32_t j = 0; j < count; ++j)
    packets.push_back(encode_packet(messages, j));
  return packets;
}

template <typename Field>
typename ReedSolomon<Field>::Messages ReedSolomon<Field>::decode(
    const std::vector<Packet>& packets) const {
  // Select k packets with distinct indices.
  std::vector<const Packet*> chosen;
  std::set<std::uint32_t> seen;
  for (const auto& p : packets) {
    if (seen.insert(p.index).second) {
      NRN_EXPECTS(p.symbols.size() == block_len_, "packet length mismatch");
      chosen.push_back(&p);
      if (chosen.size() == k_) break;
    }
  }
  NRN_EXPECTS(chosen.size() == k_,
              "decode requires k packets with distinct indices");

  // Solve V * M = Y where V[r][c] = x_r^c over the k chosen points.
  // Augmented elimination carries the packet payloads as the right side.
  const std::size_t k = k_;
  Messages v(k, std::vector<Symbol>(k));
  Messages y(k);
  for (std::size_t r = 0; r < k; ++r) {
    const Symbol x = field_.alpha_pow(chosen[r]->index);
    Symbol xp = 1;
    for (std::size_t c = 0; c < k; ++c) {
      v[r][c] = xp;
      xp = field_.mul(xp, x);
    }
    y[r] = chosen[r]->symbols;
  }

  // Forward elimination with partial pivoting (any nonzero pivot works in a
  // field; Vandermonde with distinct points is nonsingular).
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    while (pivot < k && v[pivot][col] == 0) ++pivot;
    NRN_ENSURES(pivot < k, "singular Vandermonde system (duplicate points?)");
    std::swap(v[pivot], v[col]);
    std::swap(y[pivot], y[col]);
    const Symbol inv = field_.inv(v[col][col]);
    field_.scale(&v[col][col], inv, k - col);
    field_.scale(y[col].data(), inv, block_len_);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col || v[r][col] == 0) continue;
      // Subtraction is addition in characteristic 2.
      const Symbol f = v[r][col];
      field_.axpy(&v[r][col], &v[col][col], f, k - col);
      field_.axpy(y[r].data(), y[col].data(), f, block_len_);
    }
  }
  return y;
}

template class ReedSolomon<Gf256>;
template class ReedSolomon<Gf65536>;

}  // namespace nrn::coding
