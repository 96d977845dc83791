//===- serialize/ByteStream.h - Binary encode/decode ------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary writer/reader for the artifact formats.  The writer
/// appends to a byte vector; the reader is bounds-checked and latches an
/// error instead of throwing, so callers validate once at the end:
///
///   ByteReader R(Blob);
///   uint64_t N = R.readU64();
///   ...
///   if (!R.ok()) return corrupt();
///
/// Doubles travel as IEEE-754 bit patterns, which is what makes cached
/// profiles bit-identical to freshly collected ones.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERIALIZE_BYTESTREAM_H
#define DMP_SERIALIZE_BYTESTREAM_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dmp::serialize {

/// Appends little-endian scalars and length-prefixed strings to a buffer.
class ByteWriter {
public:
  void writeU8(uint8_t V) { Buffer.push_back(V); }

  void writeU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buffer.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buffer.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeDouble(double V) { writeU64(std::bit_cast<uint64_t>(V)); }

  void writeString(const std::string &S) {
    writeU64(S.size());
    Buffer.insert(Buffer.end(), S.begin(), S.end());
  }

  void writeBytes(const void *Data, size_t Size) {
    const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
    Buffer.insert(Buffer.end(), Bytes, Bytes + Size);
  }

  /// Reserves room for \p Size more bytes, so a payload of known size is
  /// written into one exact allocation.
  void reserve(size_t Size) { Buffer.reserve(Buffer.size() + Size); }

  const std::vector<uint8_t> &bytes() const { return Buffer; }
  std::vector<uint8_t> take() { return std::move(Buffer); }

private:
  std::vector<uint8_t> Buffer;
};

/// Bounds-checked reader over a byte span.  After a short read every
/// subsequent read returns zero values and ok() stays false.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Blob)
      : ByteReader(Blob.data(), Blob.size()) {}

  uint8_t readU8() {
    uint8_t V = 0;
    readRaw(&V, 1);
    return V;
  }

  uint32_t readU32() {
    uint8_t LE[4] = {};
    readRaw(LE, sizeof(LE));
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= uint32_t(LE[I]) << (8 * I);
    return V;
  }

  uint64_t readU64() {
    uint8_t LE[8] = {};
    readRaw(LE, sizeof(LE));
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= uint64_t(LE[I]) << (8 * I);
    return V;
  }

  double readDouble() { return std::bit_cast<double>(readU64()); }

  std::string readString() {
    const uint64_t Len = readU64();
    if (Len > remaining()) {
      Error = true;
      return std::string();
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos),
                  static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return S;
  }

  /// Reads \p N raw bytes into \p Out (zeros after a short read).
  void readBytes(void *Out, size_t N) { readRaw(Out, N); }

  bool ok() const { return !Error; }
  size_t remaining() const { return Size - Pos; }
  bool atEnd() const { return Pos == Size; }

private:
  void readRaw(void *Out, size_t N) {
    if (N > remaining()) {
      Error = true;
      std::memset(Out, 0, N);
      return;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Error = false;
};

} // namespace dmp::serialize

#endif // DMP_SERIALIZE_BYTESTREAM_H
