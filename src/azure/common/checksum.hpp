// End-to-end content checksums, modelling Azure's Content-MD5 contract: the
// client computes a checksum over the payload it uploads, the service
// validates it before committing, stores it with the object, and returns it
// with every download so the client can verify the bytes it received.
//
// CRC32C (Castagnoli) stands in for MD5: it is what Azure's storage backend
// uses internally per block, it is cheap enough to run on every simulated
// payload, and a 32-bit value keeps the replica ledger compact. Software
// table-driven implementation — bit-reproducible across platforms, no
// SSE4.2 dependency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "azure/common/payload.hpp"
#include "simcore/random.hpp"

namespace azure {

/// Incremental CRC32C (polynomial 0x1EDC6F41, reflected form 0x82F63B78).
/// Known answer: Crc32c over "123456789" yields 0xE3069283.
class Crc32c {
 public:
  Crc32c() = default;

  Crc32c& update(const char* data, std::size_t len) {
    std::uint32_t crc = ~value_;
    for (std::size_t i = 0; i < len; ++i) {
      crc = (crc >> 8) ^
            table()[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF];
    }
    value_ = ~crc;
    return *this;
  }

  Crc32c& update(std::string_view s) { return update(s.data(), s.size()); }

  /// Folds a raw integer into the digest (for structured values — entity
  /// properties, sizes — without materialising a byte string).
  Crc32c& update_u64(std::uint64_t v) {
    char buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    return update(buf, sizeof(buf));
  }

  std::uint32_t value() const noexcept { return value_; }

  static std::uint32_t of(std::string_view s) {
    return Crc32c().update(s).value();
  }

 private:
  static const std::array<std::uint32_t, 256>& table() {
    static const std::array<std::uint32_t, 256> t = [] {
      std::array<std::uint32_t, 256> tbl{};
      for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k) {
          c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
        }
        tbl[n] = c;
      }
      return tbl;
    }();
    return t;
  }

  std::uint32_t value_ = 0;
};

/// Content checksum of a payload. Real bytes get the real CRC32C; synthetic
/// (size-only) payloads get a deterministic hash of their size, so benchmark
/// workloads participate in the integrity machinery without materialising
/// bytes. The two ranges are not distinguished — a checksum is only ever
/// compared against another checksum computed the same way.
inline std::uint32_t payload_crc(const Payload& p) {
  if (!p.is_synthetic()) return Crc32c::of(p.data());
  // splitmix64's first output from the size.
  return static_cast<std::uint32_t>(
      sim::stream_seed(static_cast<std::uint64_t>(p.size()), 0) >> 16);
}

/// Deterministic combiner for deriving object ids and version checksums
/// from parts (service salt, partition hash, mutation serials).
inline std::uint64_t mix_u64(std::uint64_t a, std::uint64_t b) {
  return sim::mix64(a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2)));
}

}  // namespace azure
