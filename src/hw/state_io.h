// State serialization primitives for machine snapshots (DESIGN.md §13).
//
// StateWriter/StateReader implement the canonical little-endian wire format
// every SaveState/LoadState method in the hardware, runtime and monitor
// layers speaks. The format is position-based (no per-field tags): a
// component's LoadState must read exactly the fields its SaveState wrote, in
// the same order — versioning is handled one level up, by the snapshot
// container (src/snapshot), which tags whole sections by name and stamps the
// file with a format version. Readers bounds-check every access; running off
// the end of a payload is a hard error (OPEC_CHECK), surfaced as a structured
// failure wherever ScopedCheckThrow is active (campaign, fuzz).

#ifndef SRC_HW_STATE_IO_H_
#define SRC_HW_STATE_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/support/check.h"
#include "src/support/hash.h"

namespace opec_hw {

// FNV-1a 64-bit, the digest used for snapshot identity (matches the fuzz
// harness's case digests).
using opec_support::Fnv1a64;

class StateWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Bytes(const uint8_t* data, size_t n) { bytes_.insert(bytes_.end(), data, data + n); }
  // Length-prefixed byte string.
  void Blob(const std::vector<uint8_t>& v) {
    U64(v.size());
    Bytes(v.data(), v.size());
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  const std::vector<uint8_t>& data() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

class StateReader {
 public:
  StateReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit StateReader(const std::vector<uint8_t>& v) : data_(v.data()), size_(v.size()) {}

  uint8_t U8() {
    Need(1);
    return data_[pos_++];
  }
  bool Bool() { return U8() != 0; }
  uint32_t U32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  // An item count for a container the caller is about to size: no more items
  // than the rest of the payload can hold at `min_item_bytes` each, so a
  // corrupt count is the same error as a truncation, never a huge resize.
  uint64_t Count(size_t min_item_bytes) {
    uint64_t n = U64();
    OPEC_CHECK_MSG(n <= remaining() / min_item_bytes, "snapshot payload truncated or corrupt");
    return n;
  }
  void Bytes(uint8_t* out, size_t n) {
    Need(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }
  // n little-endian words in one bounds check, the bulk twin of n U32()
  // calls. On a little-endian host the wire order is the host order.
  void U32s(uint32_t* out, size_t n) {
    OPEC_CHECK_MSG(n <= remaining() / 4, "snapshot payload truncated or corrupt");
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_ + pos_, n * 4);
      pos_ += n * 4;
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      out[i] = U32();
    }
  }
  // A length-prefixed byte string, viewed in place: the span points into
  // this reader's buffer, so it must not outlive it.
  std::span<const uint8_t> BlobView() {
    uint64_t n = U64();
    Need(n);
    std::span<const uint8_t> view(data_ + pos_, n);
    pos_ += n;
    return view;
  }
  std::vector<uint8_t> Blob() {
    std::span<const uint8_t> view = BlobView();
    return {view.begin(), view.end()};
  }
  std::string Str() {
    uint64_t n = U64();
    Need(n);
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }
  // A reader over a length-prefixed byte string, like BlobView.
  StateReader BlobReader() {
    std::span<const uint8_t> view = BlobView();
    return StateReader(view.data(), view.size());
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  void Need(uint64_t n) const {
    OPEC_CHECK_MSG(n <= size_ - pos_, "snapshot payload truncated or corrupt");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace opec_hw

#endif  // SRC_HW_STATE_IO_H_
