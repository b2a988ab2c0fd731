#include "net/frame.hpp"

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

std::uint64_t payload_checksum(const std::uint8_t* data, std::size_t n) {
  // Same constants as Fnv1a (common/fnv1a.hpp), folded bytewise so the
  // hash does not depend on how the payload would pack into words.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

void put_header(std::vector<std::uint8_t>& out, const Frame& f) {
  Writer w;
  w.u32(kFrameMagic);
  w.u16(f.type);
  w.u16(f.flags);
  w.u64(f.payload.size());
  out.insert(out.end(), w.buf.begin(), w.buf.end());
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
  h.len = r.u64();
  if (magic != kFrameMagic) return WireStatus::BadMagic;
  if (h.len == 0) return WireStatus::EmptyPayload;
  if (h.len > kMaxFramePayload) return WireStatus::Oversized;
  return WireStatus::Ok;
}

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  GPA_CHECK(!frame.payload.empty(), "net: cannot encode an empty frame payload");
  GPA_CHECK(frame.payload.size() <= kMaxFramePayload, "net: frame payload exceeds cap");
  out.clear();
  out.reserve(kFrameHeaderBytes + frame.payload.size() + kFrameTrailerBytes);
  put_header(out, frame);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  Writer w;
  w.u64(payload_checksum(frame.payload.data(), frame.payload.size()));
  out.insert(out.end(), w.buf.begin(), w.buf.end());
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
  if (payload_checksum(payload, static_cast<std::size_t>(h.len)) != stated) {
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
  if (payload_checksum(out.payload.data(), out.payload.size()) != tr.u64()) {
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

void put_matrix(Writer& w, const Matrix<float>& m) {
  w.i64(m.rows());
  w.i64(m.cols());
  // Rows are contiguous; ship the buffer, field order is the element
  // order. f32 bit patterns are endian-normalised like every other
  // field (memcpy'd to u32, emitted LE) — bulk copy is safe because
  // the build targets little-endian hosts only; a big-endian port
  // would swap here.
  w.bytes(m.data(), static_cast<std::size_t>(m.rows()) * static_cast<std::size_t>(m.cols()) *
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

void put_csr(Writer& w, const Csr<float>& m) {
  w.i64(m.rows);
  w.i64(m.cols);
  w.u64(m.nnz());
  for (const Index o : m.row_offsets) w.i64(o);
  for (const Index c : m.col_idx) w.i64(c);
  w.bytes(m.values.data(), m.values.size() * sizeof(float));
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
  const std::uint64_t need = (static_cast<std::uint64_t>(rows) + 1) * 8 + nnz * (8 + 4);
  if (r.remaining() < need) {
    r.ok = false;
    return false;
  }
  m.rows = static_cast<Index>(rows);
  m.cols = static_cast<Index>(cols);
  m.row_offsets.resize(static_cast<std::size_t>(rows) + 1);
  m.col_idx.resize(static_cast<std::size_t>(nnz));
  m.values.resize(static_cast<std::size_t>(nnz));
  for (Index& o : m.row_offsets) o = static_cast<Index>(r.i64());
  for (Index& c : m.col_idx) c = static_cast<Index>(r.i64());
  if (!r.bytes(m.values.data(), m.values.size() * sizeof(float))) return false;
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
