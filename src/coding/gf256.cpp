#include "coding/gf256.hpp"

namespace nrn::coding {

Gf256::Gf256() {
  constexpr std::uint32_t kPoly = 0x11D;
  std::uint32_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp_[static_cast<std::size_t>(i)] = static_cast<Symbol>(x);
    log_[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPoly;
  }
  for (int i = 255; i < 512; ++i)
    exp_[static_cast<std::size_t>(i)] = exp_[static_cast<std::size_t>(i - 255)];
  log_[0] = 0;  // never read; div/pow guard zero operands
  // Row 0 and column 0 stay zero.
  for (std::size_t a = 1; a < 256; ++a)
    for (std::size_t b = 1; b < 256; ++b)
      product_[a << 8 | b] = exp_[log_[a] + log_[b]];
}

const Gf256& Gf256::instance() {
  static const Gf256 field;
  return field;
}

Gf256::Symbol Gf256::pow(Symbol a, std::uint32_t e) const {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const std::uint32_t le = (static_cast<std::uint32_t>(log_[a]) * e) % 255;
  return exp_[le];
}

}  // namespace nrn::coding
