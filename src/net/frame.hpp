#pragma once
// Wire layer: length-prefixed binary framing with explicit little-endian
// field encoding and an XXH64 checksum over the header and the payload.
//
// Frame layout on the wire:
//
//   [magic   u32]  0x47504132 ("GPA2")
//   [type    u16]  frame type (rpc.hpp assigns request/response)
//   [flags   u16]  reserved, must round-trip
//   [len     u32]  payload byte count, 1 .. kMaxFramePayload
//   [hcheck  u32]  low half of XXH64 over the 12 bytes above
//   [payload len bytes]
//   [checksum u64] XXH64 over the payload bytes
//
// Every multi-byte field is little-endian *by construction* (bytes are
// shifted in/out explicitly), so the format is identical across hosts
// regardless of native endianness. A zero-length payload is a typed
// decode error, not a valid frame: every RPC body starts with at least
// one byte (the op / status octet), so an empty payload can only be a
// peer bug or corruption, and rejecting it up front means no handler
// ever sees an empty body. The header check catches a damaged length
// before the reader waits for the bytes it promises, so a flipped bit
// anywhere in a frame is a typed error, never a stalled read.
//
// Decoding never throws and never reads past the given buffer: every
// malformed input maps to a WireStatus. The Reader primitive underruns
// to a sticky `ok = false` state instead of UB, so payload codecs can
// be written straight-line and checked once at the end.

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "seqpar/partition.hpp"
#include "sparse/csr.hpp"
#include "tensor/matrix.hpp"

namespace gpa::net {

class Transport;  // transport.hpp

/// Typed outcome of every decode path. Nothing in the wire layer
/// throws on malformed input — bad bytes from a peer are an expected
/// operational condition, not a programming error.
enum class WireStatus : std::uint8_t {
  Ok = 0,
  Truncated,         ///< fewer bytes than the header/trailer promise
  BadMagic,          ///< first 4 bytes are not the frame magic
  Oversized,         ///< length prefix exceeds kMaxFramePayload
  EmptyPayload,      ///< length prefix is zero (no valid frame is empty)
  ChecksumMismatch,  ///< header or payload bytes do not hash to their check
  Malformed,         ///< structurally wrong (trailing junk, bad body)
  Closed,            ///< transport EOF / error mid-frame
};

const char* to_string(WireStatus s);

/// "GPA2". Frames and mask files written with the byte-wise FNV-1a
/// checksum of the first format ("GPAF", 0x47504146) fail as BadMagic.
inline constexpr std::uint32_t kFrameMagic = 0x47504132u;
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 8;
/// Cap on a single frame's payload. Large enough for any realistic
/// shard (a 64k x 256 f32 matrix is 64 MiB); small enough that a
/// corrupt length prefix cannot drive a multi-gigabyte allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;
static_assert(kMaxFramePayload <= 0xffffffffull, "the length field is a u32");

struct Frame {
  std::uint16_t type = 0;
  std::uint16_t flags = 0;
  std::vector<std::uint8_t> payload;
};

/// XXH64 (seed 0) of a byte range, read as 8-byte little-endian words
/// in four independent lanes. A frame's trailer is this over the
/// payload; its header check is the low 32 bits of this over the header.
std::uint64_t frame_checksum(const std::uint8_t* data, std::size_t n);

/// Frame a payload where it lies: `wire` holds kFrameHeaderBytes of room
/// followed by the payload. Writes the header into the room and appends
/// the checksum trailer, so the payload is never copied. The payload
/// must be non-empty and within the cap; violations are caller bugs and
/// throw InvalidArgument.
void frame_in_place(std::vector<std::uint8_t>& wire, std::uint16_t type, std::uint16_t flags);

/// Serialize a frame (header + payload + checksum trailer) into `out`
/// (overwritten), with the same checks as frame_in_place.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Decode one complete frame from a buffer. The buffer must contain
/// exactly one frame: trailing bytes are Malformed (streamed reads know
/// the exact extent from the header, so extra bytes mean the caller
/// sliced wrong or the peer is corrupt).
WireStatus decode_frame(const std::uint8_t* data, std::size_t n, Frame& out);

/// Blocking frame I/O over a transport. read_frame returns Closed on
/// EOF/timeout and the header/payload statuses on corrupt bytes; it
/// never hangs beyond the transport's own receive timeout and never
/// allocates more than the length prefix admits. It reuses `out`'s
/// payload capacity. send_framed sends bytes frame_in_place framed.
WireStatus write_frame(Transport& t, const Frame& frame);
WireStatus send_framed(Transport& t, const std::vector<std::uint8_t>& wire);
WireStatus read_frame(Transport& t, Frame& out);

// ---------------------------------------------------------------------
// Little-endian payload primitives.

struct Writer {
  std::vector<std::uint8_t> buf;

  void u8(std::uint8_t v) { buf.push_back(v); }
  void u16(std::uint16_t v) {
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) buf.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) buf.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
  }
};

/// Bounds-checked reader: any underrun flips the sticky `ok` flag and
/// yields zeros from then on. Codecs check `r.ok` (and usually
/// `r.done()`) once after reading all fields.
struct Reader {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  bool ok = true;

  Reader(const std::uint8_t* data, std::size_t n) : p(data), end(data + n) {}
  explicit Reader(std::span<const std::uint8_t> bytes) : Reader(bytes.data(), bytes.size()) {}

  std::size_t remaining() const { return ok ? static_cast<std::size_t>(end - p) : 0; }
  bool done() const { return ok && p == end; }

  bool take(std::size_t n) {
    if (!ok || static_cast<std::size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return *p++;
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
    p += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    p += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool bytes(void* dst, std::size_t n) {
    if (!take(n)) return false;
    if (n == 0) return true;  // an empty matrix or array may have no storage
    std::memcpy(dst, p, n);
    p += n;
    return true;
  }
};

// ---------------------------------------------------------------------
// Typed payload codecs for the existing library types. Each get_*
// returns false (leaving the Reader's sticky flag tripped where
// applicable) on underrun or on dimensions that fail sanity bounds —
// a hostile length field must not drive the allocation.

void put_string(Writer& w, const std::string& s);
bool get_string(Reader& r, std::string& s);

void put_matrix(Writer& w, const Matrix<float>& m);
bool get_matrix(Reader& r, Matrix<float>& m);
/// Rows [lo, hi) of `m`, encoded as put_matrix encodes a matrix holding
/// only those rows, written straight from `m`.
void put_matrix_rows(Writer& w, const Matrix<float>& m, Index lo, Index hi);
/// Reads a matrix that must be (hi - lo) × m.cols() straight into rows
/// [lo, hi) of `m`; false (and nothing trusted) on any other shape.
bool get_matrix_rows(Reader& r, Matrix<float>& m, Index lo, Index hi);

void put_csr(Writer& w, const Csr<float>& m);
bool get_csr(Reader& r, Csr<float>& m);
/// Rows [lo, hi) of `m` as put_csr encodes a mask of the same shape
/// whose other rows are empty (row and column ids stay global), written
/// straight from `m`. put_csr is this over every row.
void put_csr_rows(Writer& w, const Csr<float>& m, Index lo, Index hi);

void put_partition(Writer& w, const seqpar::Partition& p);
bool get_partition(Reader& r, seqpar::Partition& p);

// ---------------------------------------------------------------------
// Mask files. Long-context masks are expensive to rebuild (BigBird's
// random component must also be identical across runs), so pipelines
// persist them. A mask file is exactly one frame of type kFrameMaskFile
// whose payload is put_csr — the same codec and the same hostile-input
// checks as the wire.

inline constexpr std::uint16_t kFrameMaskFile = 3;

/// Throws InvalidArgument for a non-canonical mask or an I/O failure.
void save_mask(const Csr<float>& mask, const std::string& path);
/// Throws InvalidArgument for anything but a well-formed mask file. The
/// read is sized by the file's real length, capped by kMaxFramePayload,
/// so no header field can drive an allocation.
Csr<float> load_mask(const std::string& path);

}  // namespace gpa::net
