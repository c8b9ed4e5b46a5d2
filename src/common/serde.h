#ifndef DESIS_COMMON_SERDE_H_
#define DESIS_COMMON_SERDE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace desis {

/// Append-only binary writer. All network messages are serialized through
/// this so channels can account the exact number of bytes "on the wire".
class ByteWriter {
 public:
  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  void WriteU8(uint8_t v) { WritePod(v); }
  void WriteU16(uint16_t v) { WritePod(v); }
  void WriteU32(uint32_t v) { WritePod(v); }
  void WriteU64(uint64_t v) { WritePod(v); }
  void WriteI64(int64_t v) { WritePod(v); }
  void WriteDouble(double v) { WritePod(v); }

  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    const size_t offset = buffer_.size();
    buffer_.resize(offset + s.size());
    std::memcpy(buffer_.data() + offset, s.data(), s.size());
  }

  template <typename T>
  void WritePodVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU32(static_cast<uint32_t>(values.size()));
    if (values.empty()) return;  // data() may be null: no memcpy
    const size_t offset = buffer_.size();
    buffer_.resize(offset + values.size() * sizeof(T));
    std::memcpy(buffer_.data() + offset, values.data(),
                values.size() * sizeof(T));
  }

  size_t size() const { return buffer_.size(); }
  const std::vector<uint8_t>& bytes() const { return buffer_; }
  std::vector<uint8_t> TakeBytes() { return std::move(buffer_); }

 private:
  std::vector<uint8_t> buffer_;
};

/// Sequential binary reader over a byte span produced by ByteWriter.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  template <typename T>
  T ReadPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(pos_ + sizeof(T) <= size_);
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  uint8_t ReadU8() { return ReadPod<uint8_t>(); }
  uint16_t ReadU16() { return ReadPod<uint16_t>(); }
  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }
  double ReadDouble() { return ReadPod<double>(); }

  std::string ReadString() {
    const uint32_t n = ReadU32();
    assert(pos_ + n <= size_);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> ReadPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint32_t n = ReadU32();
    assert(pos_ + n * sizeof(T) <= size_);
    std::vector<T> values(n);
    if (n == 0) return values;  // data() may be null: no memcpy
    std::memcpy(values.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return values;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace desis

#endif  // DESIS_COMMON_SERDE_H_
