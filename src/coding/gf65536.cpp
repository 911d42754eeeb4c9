#include "coding/gf65536.hpp"

namespace nrn::coding {

Gf65536::Gf65536() {
  constexpr std::uint32_t kPoly = 0x1100B;
  exp_.assign(kZeroLog + kGroupOrder, 0);
  log_.assign(kFieldSize, kZeroLog);
  std::uint32_t x = 1;
  for (std::uint32_t i = 0; i < kGroupOrder; ++i) {
    exp_[i] = static_cast<Symbol>(x);
    log_[x] = i;
    x <<= 1;
    if (x & 0x10000) x ^= kPoly;
  }
  NRN_ENSURES(x == 1, "0x1100B is not primitive?");
  for (std::uint32_t i = kGroupOrder; i < 2 * kGroupOrder; ++i)
    exp_[i] = exp_[i - kGroupOrder];
}

const Gf65536& Gf65536::instance() {
  static const Gf65536 field;
  return field;
}

Gf65536::Symbol Gf65536::pow(Symbol a, std::uint64_t e) const {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const std::uint64_t le = (static_cast<std::uint64_t>(log_[a]) * e) % kGroupOrder;
  return exp_[le];
}

}  // namespace nrn::coding
