// Random linear network coding over GF(2^8) (Lemmas 12/13).
//
// Every node maintains an RlncState: the subspace of the k-dimensional
// message space it has observed, kept in reduced row-echelon form with an
// optional payload matrix alongside (so decoding returns the actual message
// bytes, not just a rank certificate).  Nodes broadcast uniformly random
// combinations of their basis (Haeupler's "analyzing network coding gossip
// made easy" framework); a node has "received" the k messages exactly when
// its rank reaches k.
//
// Storage is flat: the basis is one row-major k x k buffer (row i at
// offset i * k, rows ordered by pivot) with a parallel k x block_len
// payload buffer, and absorb() eliminates in member scratch rows, so a
// warm state allocates nothing.  Every row operation is a Gf256 axpy/scale
// kernel.
//
// Emitting is split in two.  draw() makes the packet's random choices --
// rank() coefficients from next_below(256), redrawn together while all are
// zero -- and combine() turns those coefficients into the packet bytes.
// A broadcast loop can therefore draw at stage time, keeping the rng
// sequence (the coin tape) exactly that of an eager emit(), and combine
// only the packets a receiver can still use.  The bytes are unchanged as
// long as every combine of a round precedes that round's first absorb:
// the sender's basis is then still the one the coefficients were drawn
// against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "coding/gf256.hpp"

namespace nrn::coding {

/// A coded RLNC packet: k coefficients plus (optionally) the combined
/// payload symbols.
struct RlncPacket {
  std::vector<std::uint8_t> coeffs;
  std::vector<std::uint8_t> payload;  ///< empty in coefficient-only mode
};

class RlncState {
 public:
  /// k: message-space dimension.  block_len: payload symbols per message;
  /// 0 selects coefficient-only mode (throughput experiments).
  RlncState(std::size_t k, std::size_t block_len);

  std::size_t k() const { return k_; }
  std::size_t block_len() const { return block_len_; }
  std::size_t rank() const { return pivots_.size(); }
  bool complete() const { return rank() == k_; }

  /// Pivot column of basis row i (i < rank()), strictly increasing in i.
  std::size_t pivot(std::size_t i) const { return pivots_[i]; }
  /// The k coefficients of basis row i (i < rank()).
  const std::uint8_t* row(std::size_t i) const {
    return rows_.data() + i * k_;
  }

  /// Installs the full standard basis with the given payloads (the source
  /// knows all k messages).  In coefficient-only mode pass an empty vector.
  void seed_source(const std::vector<std::vector<std::uint8_t>>& messages);

  /// Gaussian-eliminates the packet (k coefficients, and block_len payload
  /// symbols unless in coefficient-only mode, where `payload` is ignored)
  /// into the basis.  Returns true iff it was innovative (rank increased).
  bool absorb(const std::uint8_t* coeffs, const std::uint8_t* payload);
  bool absorb(const RlncPacket& packet);

  /// Draws the rank() combination coefficients of one emitted packet into
  /// `lambda`, resampling the all-zero draw.  Requires rank() >= 1.
  void draw(Rng& rng, std::uint8_t* lambda) const;

  /// Writes the combination `lambda` (rank() coefficients, from draw()) of
  /// the basis into `coeffs` (k symbols) and `payload` (block_len symbols;
  /// unused in coefficient-only mode).
  void combine(const std::uint8_t* lambda, std::uint8_t* coeffs,
               std::uint8_t* payload) const;

  /// Emits a uniformly random nonzero combination of the basis rows:
  /// draw() then combine().  Requires rank() >= 1.
  RlncPacket emit(Rng& rng) const;

  /// Returns the k decoded messages; requires complete() and payload mode.
  std::vector<std::vector<std::uint8_t>> decode() const;

 private:
  std::uint8_t* row_mut(std::size_t i) { return rows_.data() + i * k_; }
  std::uint8_t* payload_row(std::size_t i) {
    return payloads_.data() + i * block_len_;
  }
  const std::uint8_t* payload_row(std::size_t i) const {
    return payloads_.data() + i * block_len_;
  }

  std::size_t k_;
  std::size_t block_len_;
  const Gf256& field_;
  std::vector<std::size_t> pivots_;   // pivot column of each row
  std::vector<std::uint8_t> rows_;      // k x k, rows [0, rank) in use
  std::vector<std::uint8_t> payloads_;  // k x block_len, parallel to rows_
  std::vector<std::uint8_t> coeff_scratch_;    // absorb's working row
  std::vector<std::uint8_t> payload_scratch_;  // and its payload
};

}  // namespace nrn::coding
