#include "net/frame.hpp"

#include <algorithm>
#include <bit>
#include <fstream>

#include "common/error.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace gpa::net {

namespace {

// Per-process wire totals, counted at the transport boundary (the
// loopback arm goes through the same two functions, so loopback tests
// see the same accounting as TCP). Byte counts include the 24 bytes of
// header + trailer — they answer "what crossed the wire", not "payload
// goodput".
struct WireMetrics {
  obs::Counter& frames_sent;
  obs::Counter& frames_received;
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& checksum_failures;

  static WireMetrics& get() {
    static WireMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return WireMetrics{reg.counter("net.frames.sent"),
                         reg.counter("net.frames.received"),
                         reg.counter("net.bytes.sent"),
                         reg.counter("net.bytes.received"),
                         reg.counter("net.checksum_failures")};
    }();
    return m;
  }
};

}  // namespace

const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::Ok: return "ok";
    case WireStatus::Truncated: return "truncated";
    case WireStatus::BadMagic: return "bad magic";
    case WireStatus::Oversized: return "oversized length prefix";
    case WireStatus::EmptyPayload: return "empty payload";
    case WireStatus::ChecksumMismatch: return "checksum mismatch";
    case WireStatus::Malformed: return "malformed";
    case WireStatus::Closed: return "transport closed";
  }
  return "unknown";
}

namespace {

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

/// Bytes [p, p+n) as a little-endian integer, whatever the host order.
std::uint64_t load_le(const std::uint8_t* p, int n) {
  std::uint64_t v = 0;
  for (int b = 0; b < n; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

/// The low n bytes of v into [p, p+n), little-endian.
void store_le(std::uint8_t* p, std::uint64_t v, int n) {
  for (int b = 0; b < n; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return rotl(acc + word * kP2, 31) * kP1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

}  // namespace

std::uint64_t frame_checksum(const std::uint8_t* data, std::size_t n) {
  // XXH64 with seed 0: four lanes each fold one 8-byte word of every
  // 32-byte stripe, so the multiplies of different lanes overlap; the
  // tail folds 8, then 4, then 1 byte at a time.
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load_le(p, 8));
      v2 = lane_round(v2, load_le(p + 8, 8));
      v3 = lane_round(v3, load_le(p + 16, 8));
      v4 = lane_round(v4, load_le(p + 24, 8));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    for (const std::uint64_t v : {v1, v2, v3, v4}) h = merge_lane(h, v);
  } else {
    h = kP5;
  }
  h += n;
  for (; end - p >= 8; p += 8) h = rotl(h ^ lane_round(0, load_le(p, 8)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = rotl(h ^ (load_le(p, 4) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

namespace {

/// Guards the 12 header bytes before it, so a damaged length prefix is
/// caught before the reader waits for, or allocates, the bytes it
/// promises.
std::uint32_t header_check(const std::uint8_t* header) {
  return static_cast<std::uint32_t>(frame_checksum(header, kFrameHeaderBytes - 4));
}

struct Header {
  std::uint16_t type = 0;
  std::uint16_t flags = 0;
  std::uint64_t len = 0;
};

/// Validate the 16 header bytes. `n` is how many bytes the caller
/// actually has (streamed reads always pass a full header; buffer
/// decodes may be short).
WireStatus parse_header(const std::uint8_t* data, std::size_t n, Header& h) {
  if (n < kFrameHeaderBytes) return WireStatus::Truncated;
  Reader r(data, kFrameHeaderBytes);
  const std::uint32_t magic = r.u32();
  h.type = r.u16();
  h.flags = r.u16();
  h.len = r.u32();
  const std::uint32_t check = r.u32();
  if (magic != kFrameMagic) return WireStatus::BadMagic;
  if (h.len == 0) return WireStatus::EmptyPayload;
  if (h.len > kMaxFramePayload) return WireStatus::Oversized;
  if (check != header_check(data)) return WireStatus::ChecksumMismatch;
  return WireStatus::Ok;
}

}  // namespace

void frame_in_place(std::vector<std::uint8_t>& wire, std::uint16_t type, std::uint16_t flags) {
  GPA_CHECK(wire.size() > kFrameHeaderBytes, "net: cannot encode an empty frame payload");
  const std::size_t len = wire.size() - kFrameHeaderBytes;
  GPA_CHECK(len <= kMaxFramePayload, "net: frame payload exceeds cap");
  std::uint8_t* h = wire.data();
  store_le(h, kFrameMagic, 4);
  store_le(h + 4, type, 2);
  store_le(h + 6, flags, 2);
  store_le(h + 8, len, 4);
  store_le(h + 12, header_check(h), 4);
  const std::uint64_t sum = frame_checksum(h + kFrameHeaderBytes, len);
  wire.resize(wire.size() + kFrameTrailerBytes);
  store_le(wire.data() + kFrameHeaderBytes + len, sum, 8);
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  out.resize(kFrameHeaderBytes);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  frame_in_place(out, frame.type, frame.flags);
}

WireStatus decode_frame(const std::uint8_t* data, std::size_t n, Frame& out) {
  Header h;
  const WireStatus hs = parse_header(data, n, h);
  if (hs != WireStatus::Ok) return hs;
  const std::uint64_t want = kFrameHeaderBytes + h.len + kFrameTrailerBytes;
  if (n < want) return WireStatus::Truncated;
  if (n > want) return WireStatus::Malformed;  // trailing junk
  const std::uint8_t* payload = data + kFrameHeaderBytes;
  Reader tr(payload + h.len, kFrameTrailerBytes);
  const std::uint64_t stated = tr.u64();
  if (frame_checksum(payload, static_cast<std::size_t>(h.len)) != stated) {
    return WireStatus::ChecksumMismatch;
  }
  out.type = h.type;
  out.flags = h.flags;
  out.payload.assign(payload, payload + h.len);
  return WireStatus::Ok;
}

WireStatus write_frame(Transport& t, const Frame& frame) {
  std::vector<std::uint8_t> wire;
  encode_frame(frame, wire);
  return send_framed(t, wire);
}

WireStatus send_framed(Transport& t, const std::vector<std::uint8_t>& wire) {
  if (!t.send_all(wire.data(), wire.size())) return WireStatus::Closed;
  WireMetrics& wm = WireMetrics::get();
  wm.frames_sent.inc();
  wm.bytes_sent.inc(wire.size());
  return WireStatus::Ok;
}

WireStatus read_frame(Transport& t, Frame& out) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!t.recv_exact(header, kFrameHeaderBytes)) return WireStatus::Closed;
  Header h;
  const WireStatus hs = parse_header(header, kFrameHeaderBytes, h);
  // On a corrupt header the stream position is unrecoverable (the
  // length prefix cannot be trusted), so the caller must close; we do
  // not attempt to resynchronise.
  if (hs != WireStatus::Ok) return hs;
  out.type = h.type;
  out.flags = h.flags;
  out.payload.resize(static_cast<std::size_t>(h.len));
  if (!t.recv_exact(out.payload.data(), out.payload.size())) return WireStatus::Truncated;
  std::uint8_t trailer[kFrameTrailerBytes];
  if (!t.recv_exact(trailer, kFrameTrailerBytes)) return WireStatus::Truncated;
  Reader tr(trailer, kFrameTrailerBytes);
  if (frame_checksum(out.payload.data(), out.payload.size()) != tr.u64()) {
    WireMetrics::get().checksum_failures.inc();
    return WireStatus::ChecksumMismatch;
  }
  WireMetrics& wm = WireMetrics::get();
  wm.frames_received.inc();
  wm.bytes_received.inc(kFrameHeaderBytes + out.payload.size() + kFrameTrailerBytes);
  return WireStatus::Ok;
}

// ---------------------------------------------------------------------
// Typed payload codecs.

namespace {
// put_matrix and put_csr copy arrays in bulk; their bytes are the
// little-endian wire form only on a little-endian host.
static_assert(std::endian::native == std::endian::little, "net codecs assume a LE host");

/// Ceiling on decoded vector/matrix element counts: anything a peer
/// sends arrives inside one frame, so no field can legitimately promise
/// more elements than the frame cap could carry.
constexpr std::uint64_t kMaxElems = kMaxFramePayload / sizeof(float);
}  // namespace

void put_string(Writer& w, const std::string& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.bytes(s.data(), s.size());
}

bool get_string(Reader& r, std::string& s) {
  const std::uint32_t n = r.u32();
  if (!r.take(n)) return false;
  s.assign(reinterpret_cast<const char*>(r.p), n);
  r.p += n;
  return true;
}

void put_matrix(Writer& w, const Matrix<float>& m) { put_matrix_rows(w, m, 0, m.rows()); }

void put_matrix_rows(Writer& w, const Matrix<float>& m, Index lo, Index hi) {
  GPA_CHECK(0 <= lo && lo <= hi && hi <= m.rows(), "net: row range outside the matrix");
  w.i64(hi - lo);
  w.i64(m.cols());
  // Rows are contiguous; ship the buffer, field order is the element
  // order. Bulk copy emits the same LE bytes as the per-field writers
  // because the build targets little-endian hosts only (asserted
  // above); a big-endian port would swap here.
  w.bytes(m.data() + static_cast<std::size_t>(lo) * static_cast<std::size_t>(m.cols()),
          static_cast<std::size_t>(hi - lo) * static_cast<std::size_t>(m.cols()) *
              sizeof(float));
}

bool get_matrix(Reader& r, Matrix<float>& m) {
  const std::int64_t rows = r.i64();
  const std::int64_t cols = r.i64();
  if (!r.ok || rows < 0 || cols < 0) return false;
  const std::uint64_t elems = static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  if (cols > 0 && static_cast<std::uint64_t>(rows) > kMaxElems / static_cast<std::uint64_t>(cols)) {
    r.ok = false;
    return false;
  }
  if (r.remaining() < elems * sizeof(float)) {
    r.ok = false;
    return false;
  }
  m = Matrix<float>(static_cast<Index>(rows), static_cast<Index>(cols));
  return r.bytes(m.data(), static_cast<std::size_t>(elems) * sizeof(float));
}

bool get_matrix_rows(Reader& r, Matrix<float>& m, Index lo, Index hi) {
  const std::int64_t rows = r.i64();
  const std::int64_t cols = r.i64();
  if (!r.ok || lo < 0 || hi > m.rows() || rows != hi - lo || cols != m.cols()) {
    r.ok = false;
    return false;
  }
  return r.bytes(m.data() + static_cast<std::size_t>(lo) * static_cast<std::size_t>(cols),
                 static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) *
                     sizeof(float));
}

void put_csr(Writer& w, const Csr<float>& m) { put_csr_rows(w, m, 0, m.rows); }

void put_csr_rows(Writer& w, const Csr<float>& m, Index lo, Index hi) {
  GPA_CHECK(0 <= lo && lo <= hi && hi <= m.rows &&
                m.row_offsets.size() == static_cast<std::size_t>(m.rows) + 1,
            "net: rows to encode must lie inside a well-formed mask");
  const Index base = m.row_begin(lo);
  const Index top = m.row_begin(hi);
  GPA_CHECK(0 <= base && base <= top && static_cast<std::size_t>(top) <= m.col_idx.size() &&
                m.col_idx.size() == m.values.size(),
            "net: rows to encode must lie inside a well-formed mask");
  w.i64(m.rows);
  w.i64(m.cols);
  w.u64(static_cast<std::uint64_t>(top - base));
  // Offsets rebased to row lo: 0 up to it, flat after row hi.
  const std::size_t at = w.buf.size();
  w.buf.resize(at + m.row_offsets.size() * sizeof(Index));
  for (std::size_t i = 0; i < m.row_offsets.size(); ++i) {
    const Index off = std::clamp(m.row_offsets[i], base, top) - base;
    std::memcpy(w.buf.data() + at + i * sizeof(Index), &off, sizeof(Index));
  }
  // Bulk copies, on the same little-endian assumption as put_matrix.
  w.bytes(m.col_idx.data() + base, static_cast<std::size_t>(top - base) * sizeof(Index));
  w.bytes(m.values.data() + base, static_cast<std::size_t>(top - base) * sizeof(float));
}

bool get_csr(Reader& r, Csr<float>& m) {
  const std::int64_t rows = r.i64();
  const std::int64_t cols = r.i64();
  const std::uint64_t nnz = r.u64();
  if (!r.ok || rows < 0 || cols < 0 || static_cast<std::uint64_t>(rows) > kMaxElems ||
      nnz > kMaxElems) {
    r.ok = false;
    return false;
  }
  // All three arrays must fit in what remains before any allocation
  // (the bounds above keep `need` from wrapping).
  const std::uint64_t need = (static_cast<std::uint64_t>(rows) + 1) * sizeof(Index) +
                             nnz * (sizeof(Index) + sizeof(float));
  if (r.remaining() < need) {
    r.ok = false;
    return false;
  }
  m.rows = static_cast<Index>(rows);
  m.cols = static_cast<Index>(cols);
  m.row_offsets.resize(static_cast<std::size_t>(rows) + 1);
  m.col_idx.resize(static_cast<std::size_t>(nnz));
  m.values.resize(static_cast<std::size_t>(nnz));
  if (!r.bytes(m.row_offsets.data(), m.row_offsets.size() * sizeof(Index)) ||
      !r.bytes(m.col_idx.data(), m.col_idx.size() * sizeof(Index)) ||
      !r.bytes(m.values.data(), m.values.size() * sizeof(float))) {
    return false;
  }
  // Structural sanity — a peer's CSR must be canonical before any
  // kernel walks it (kernels index unchecked in release builds).
  return m.is_canonical();
}

void put_partition(Writer& w, const seqpar::Partition& p) {
  w.u32(static_cast<std::uint32_t>(p.boundaries.size()));
  for (const Index b : p.boundaries) w.i64(b);
  w.u32(static_cast<std::uint32_t>(p.work.size()));
  for (const Size s : p.work) w.u64(s);
}

bool get_partition(Reader& r, seqpar::Partition& p) {
  const std::uint32_t nb = r.u32();
  if (!r.ok || nb > kMaxElems || r.remaining() < static_cast<std::uint64_t>(nb) * 8) {
    r.ok = false;
    return false;
  }
  p.boundaries.resize(nb);
  for (Index& b : p.boundaries) b = static_cast<Index>(r.i64());
  const std::uint32_t nw = r.u32();
  if (!r.ok || nw > kMaxElems || r.remaining() < static_cast<std::uint64_t>(nw) * 8) {
    r.ok = false;
    return false;
  }
  p.work.resize(nw);
  for (Size& s : p.work) s = r.u64();
  if (!r.ok) return false;
  // parts+1 boundaries, monotone, starting at 0.
  if (p.boundaries.size() != p.work.size() + 1 || p.boundaries.empty()) return false;
  if (p.boundaries.front() != 0) return false;
  for (std::size_t i = 1; i < p.boundaries.size(); ++i) {
    if (p.boundaries[i] < p.boundaries[i - 1]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Mask files.

void save_mask(const Csr<float>& mask, const std::string& path) {
  GPA_CHECK(mask.is_canonical(), "refusing to save a non-canonical mask");
  Writer w;
  put_csr(w, mask);
  std::vector<std::uint8_t> bytes;
  encode_frame(Frame{kFrameMaskFile, 0, std::move(w.buf)}, bytes);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GPA_CHECK(out.good(), "cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  GPA_CHECK(out.good(), "short write while saving mask: " + path);
}

Csr<float> load_mask(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  GPA_CHECK(in.good(), "cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  GPA_CHECK(size >= 0 && static_cast<std::uint64_t>(size) <=
                             kFrameHeaderBytes + kMaxFramePayload + kFrameTrailerBytes,
            "not a mask file (bad size): " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  GPA_CHECK(in.good(), "short read: " + path);
  Frame f;
  const WireStatus st = decode_frame(bytes.data(), bytes.size(), f);
  GPA_CHECK(st == WireStatus::Ok, std::string("not a mask file (") + to_string(st) + "): " + path);
  GPA_CHECK(f.type == kFrameMaskFile && f.flags == 0, "not a mask file (frame type): " + path);
  Reader r(f.payload);
  Csr<float> mask;
  GPA_CHECK(get_csr(r, mask) && r.done(), "corrupt mask payload: " + path);
  return mask;
}

}  // namespace gpa::net
