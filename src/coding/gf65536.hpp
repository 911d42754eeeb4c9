// GF(2^16) arithmetic via log/antilog tables.
//
// Field: GF(2)[x] / (x^16 + x^12 + x^3 + x + 1)  (0x1100B, the CCSDS
// polynomial).  Used by the Reed-Solomon layer: the paper's coding
// schedules generate poly(nk) coded packets from k messages (Section 5),
// so the codeword length must comfortably exceed the largest k * overhead
// any experiment uses -- 2^16 - 1 evaluation points suffice for every
// sweep in this repository.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace nrn::coding {

class Gf65536 {
 public:
  using Symbol = std::uint16_t;
  static constexpr std::uint32_t kFieldSize = 65536;
  static constexpr std::uint32_t kGroupOrder = 65535;

  static const Gf65536& instance();

  Symbol add(Symbol a, Symbol b) const { return a ^ b; }
  Symbol sub(Symbol a, Symbol b) const { return a ^ b; }

  Symbol mul(Symbol a, Symbol b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  Symbol div(Symbol a, Symbol b) const {
    NRN_EXPECTS(b != 0, "division by zero in GF(65536)");
    if (a == 0) return 0;
    return exp_[log_[a] + kGroupOrder - log_[b]];
  }

  Symbol inv(Symbol a) const {
    NRN_EXPECTS(a != 0, "inverse of zero in GF(65536)");
    return exp_[kGroupOrder - log_[a]];
  }

  Symbol pow(Symbol a, std::uint64_t e) const;

  /// alpha^i for the fixed generator alpha = 2; distinct for
  /// 0 <= i < kGroupOrder (used as Reed-Solomon evaluation points).
  Symbol alpha_pow(std::uint32_t i) const { return exp_[i % kGroupOrder]; }

  // Row kernels in the log domain: log_[0] points into a zero tail of
  // exp_, so a zero source symbol needs no branch.

  /// dst[i] += f * src[i] for i < len.
  void axpy(Symbol* dst, const Symbol* src, Symbol f, std::size_t len) const {
    if (f == 0) return;
    const Symbol* row = exp_.data() + log_[f];
    for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[log_[src[i]]];
  }

  /// dst[i] = f * dst[i] for i < len.
  void scale(Symbol* dst, Symbol f, std::size_t len) const {
    if (f == 0) {
      std::fill(dst, dst + len, Symbol{0});
      return;
    }
    const Symbol* row = exp_.data() + log_[f];
    for (std::size_t i = 0; i < len; ++i) dst[i] = row[log_[dst[i]]];
  }

 private:
  Gf65536();
  // exp_[i] = alpha^i for i < 2 * kGroupOrder (doubled to skip the mod
  // reduction), then kGroupOrder zeros starting at kZeroLog = log_[0].
  static constexpr std::uint32_t kZeroLog = 2 * kGroupOrder;
  std::vector<Symbol> exp_;
  std::vector<std::uint32_t> log_;  // kFieldSize entries
};

}  // namespace nrn::coding
