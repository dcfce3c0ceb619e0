#include "h5lite/h5file.hpp"

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace is2::h5 {

std::size_t dtype_size(DType t) {
  switch (t) {
    case DType::F64: return 8;
    case DType::F32: return 4;
    case DType::I64: return 8;
    case DType::I32: return 4;
    case DType::U8: return 1;
    case DType::I8: return 1;
  }
  throw H5Error("h5lite: unknown dtype");
}

const char* dtype_name(DType t) {
  switch (t) {
    case DType::F64: return "f64";
    case DType::F32: return "f32";
    case DType::I64: return "i64";
    case DType::I32: return "i32";
    case DType::U8: return "u8";
    case DType::I8: return "i8";
  }
  return "?";
}

namespace {

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// kCrc[0] is the classic bytewise table, and kCrc[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups advance the CRC by eight
// bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Little-endian 32-bit word from four bytes, whatever the host byte order
/// or the pointer's alignment (compilers fold it into one load).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the CRC register `crc` (no initial or final XOR) over n bytes.
std::uint32_t crc32_tables(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^ kCrc[5][(lo >> 16) & 0xFFu] ^
          kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
          kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = kCrc[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

#if defined(__x86_64__)

/// One fold step: the 128-bit lane's low and high halves, each multiplied
/// by its constant (x^k mod P for the distance folded), XORed into `next`,
/// the 16 message bytes that lie that far ahead.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold16(__m128i lane, __m128i k,
                                                                 __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00), _mm_clmulepi64_si128(lane, k, 0x11)),
      next);
}

/// Carry-less-multiply folding (Intel, "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ"; the reflected IEEE constants are those of
/// Linux's crc32-pclmul). Advances the register `crc` over the first
/// n & ~15 bytes, n >= 64, and returns it; the caller finishes the rest.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold_pclmul(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // fold by 4 lanes
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // fold by 1 lane
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // 64 -> 32 bits
  const __m128i poly_mu = _mm_set_epi64x(0x1F7011641, 0x1DB710641);  // Barrett: mu, P'
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  // 1. The running CRC enters as an XOR into the first 16 bytes.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(p + 16), x2 = load(p + 32), x3 = load(p + 48);
  p += 64;
  n -= 64;
  // 2. Four independent lanes, each folded 64 bytes ahead per block.
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k1k2, load(p));
    x1 = fold16(x1, k1k2, load(p + 16));
    x2 = fold16(x2, k1k2, load(p + 32));
    x3 = fold16(x3, k1k2, load(p + 48));
  }
  // 3. The four lanes into one, 4. then each remaining 16-byte block.
  x0 = fold16(x0, k3k4, x1);
  x0 = fold16(x0, k3k4, x2);
  x0 = fold16(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, k3k4, load(p));

  // 5. 128 -> 64 bits (appending 32 zero bits), 64 -> 32 bits, then the
  // Barrett reduction modulo P leaves the register in bits 32..63.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

/// Whether this CPU runs crc32_fold_pclmul; asked once per process.
bool cpu_has_pclmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif

}  // namespace

namespace detail {

std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data) {
  return crc32_tables(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace detail

const char* crc32_kernel() {
#if defined(__x86_64__)
  if (cpu_has_pclmul()) return "pclmul";
#endif
  return "slicing-by-8";
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__)
  // 6. Inputs under 64 bytes, and the last < 16 bytes, take the tables.
  if (n >= 64 && cpu_has_pclmul()) {
    crc = crc32_fold_pclmul(crc, p, n);
    p += n & ~std::size_t{15};
    n &= 15;
  }
#endif
  return crc32_tables(crc, p, n) ^ 0xFFFFFFFFu;
}

const File::Entry& File::entry(const std::string& path) const {
  auto it = datasets_.find(path);
  if (it == datasets_.end()) throw H5Error("h5lite: no dataset at " + path);
  return it->second;
}

void File::validate_path(const std::string& path) {
  if (path.empty() || path[0] != '/')
    throw H5Error("h5lite: dataset path must start with '/': " + path);
}

std::vector<std::string> File::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, e] : datasets_)
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  return out;
}

const AttrValue& File::attr(const std::string& path) const {
  auto it = attrs_.find(path);
  if (it == attrs_.end()) throw H5Error("h5lite: no attribute at " + path);
  return it->second;
}

double File::attr_double(const std::string& path) const {
  const auto& v = attr(path);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<double>(*i);
  throw H5Error("h5lite: attribute " + path + " is not numeric");
}

std::int64_t File::attr_int(const std::string& path) const {
  const auto& v = attr(path);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  throw H5Error("h5lite: attribute " + path + " is not an integer");
}

std::string File::attr_string(const std::string& path) const {
  const auto& v = attr(path);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw H5Error("h5lite: attribute " + path + " is not a string");
}

std::size_t File::payload_bytes() const {
  std::size_t n = 0;
  for (const auto& [path, e] : datasets_) n += e.bytes.size();
  return n;
}

namespace {

constexpr char kMagic[4] = {'H', '5', 'L', 'T'};
constexpr std::uint32_t kVersion = 1;

using Writer = ByteWriter;
using Reader = ByteReader;

/// A dataset header's byte count must equal its element count times the
/// element size. The product is checked as it grows, so lying dims cannot
/// wrap it into agreement with a small byte count.
void check_dataset_bytes(const std::vector<std::uint64_t>& shape, DType dtype,
                         std::uint64_t nbytes) {
  std::uint64_t n = dtype_size(dtype);
  for (const auto d : shape) {
    if (d != 0 && n > std::numeric_limits<std::uint64_t>::max() / d)
      throw H5Error("h5lite: dataset shape overflows");
    n *= d;
  }
  if (nbytes != n) throw H5Error("h5lite: dataset size mismatch");
}

}  // namespace

std::vector<std::uint8_t> read_file_bytes(const std::string& filename) {
  std::ifstream in(filename, std::ios::binary | std::ios::ate);
  if (!in) throw H5Error("h5lite: cannot open: " + filename);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::uint8_t> buf(size);
  in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(size));
  if (!in) throw H5Error("h5lite: read failed: " + filename);
  return buf;
}

void write_file_atomic(const std::string& filename, std::span<const std::uint8_t> bytes) {
  // Same-directory temp name (rename across filesystems is not atomic).
  // pid + counter keeps concurrent writers of the same target from
  // clobbering each other's temp file.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = filename + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw H5Error("h5lite: cannot open for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw H5Error("h5lite: write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, filename, ec);
  if (ec) {
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    throw H5Error("h5lite: rename failed: " + tmp + " -> " + filename + ": " + ec.message());
  }
}

std::vector<std::uint8_t> File::serialize() const {
  Writer body;
  body.raw(static_cast<std::uint32_t>(datasets_.size()));
  for (const auto& [path, e] : datasets_) {
    body.str(path);
    body.raw(static_cast<std::uint8_t>(e.dtype));
    body.raw(static_cast<std::uint8_t>(e.shape.size()));
    for (auto d : e.shape) body.raw(static_cast<std::uint64_t>(d));
    body.raw(static_cast<std::uint64_t>(e.bytes.size()));
    body.bytes(e.bytes.data(), e.bytes.size());
  }
  body.raw(static_cast<std::uint32_t>(attrs_.size()));
  for (const auto& [path, v] : attrs_) {
    body.str(path);
    if (const auto* d = std::get_if<double>(&v)) {
      body.raw(static_cast<std::uint8_t>(0));
      body.raw(*d);
    } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
      body.raw(static_cast<std::uint8_t>(1));
      body.raw(*i);
    } else {
      body.raw(static_cast<std::uint8_t>(2));
      body.str(std::get<std::string>(v));
    }
  }

  const auto payload = body.written();
  Writer out(16 + payload.size() + 4);
  out.bytes(reinterpret_cast<const std::uint8_t*>(kMagic), 4);
  out.raw(kVersion);
  out.raw(static_cast<std::uint64_t>(payload.size()));
  out.bytes(payload.data(), payload.size());
  out.raw(crc32(payload));
  return out.release();
}

File File::deserialize(std::span<const std::uint8_t> buffer) {
  Reader r(buffer);
  char magic[4];
  r.bytes(reinterpret_cast<std::uint8_t*>(magic), 4);
  if (std::memcmp(magic, kMagic, 4) != 0) throw H5Error("h5lite: bad magic");
  const auto version = r.raw<std::uint32_t>();
  if (version != kVersion) throw H5Error("h5lite: unsupported version");
  const auto payload = r.raw<std::uint64_t>();
  // Header (16) + payload + CRC (4), compared without `16 + payload + 4`,
  // which a lying payload length can wrap past 2^64.
  if (buffer.size() < 20 || payload > buffer.size() - 20)
    throw H5Error("h5lite: truncated payload");
  const std::uint32_t want =
      crc32(buffer.subspan(16, static_cast<std::size_t>(payload)));

  File f;
  const auto n_datasets = r.raw<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_datasets; ++i) {
    const std::string path = r.str();
    Entry e;
    const auto dtype_raw = r.raw<std::uint8_t>();
    if (dtype_raw > static_cast<std::uint8_t>(DType::I8)) throw H5Error("h5lite: bad dtype");
    e.dtype = static_cast<DType>(dtype_raw);
    const auto ndim = r.raw<std::uint8_t>();
    e.shape.resize(ndim);
    for (auto& d : e.shape) d = r.raw<std::uint64_t>();
    const auto nbytes = r.raw<std::uint64_t>();
    check_dataset_bytes(e.shape, e.dtype, nbytes);
    // Before the allocation: the length field must not claim more bytes
    // than the buffer still holds.
    if (nbytes > r.remaining()) throw H5Error("h5lite: truncated file");
    const std::uint8_t* from = r.take(static_cast<std::size_t>(nbytes));
    e.bytes.assign(from, from + nbytes);
    f.datasets_[path] = std::move(e);
  }
  const auto n_attrs = r.raw<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_attrs; ++i) {
    const std::string path = r.str();
    const auto kind = r.raw<std::uint8_t>();
    switch (kind) {
      case 0: f.attrs_[path] = r.raw<double>(); break;
      case 1: f.attrs_[path] = r.raw<std::int64_t>(); break;
      case 2: f.attrs_[path] = r.str(); break;
      default: throw H5Error("h5lite: bad attribute kind");
    }
  }
  const auto got = Reader(buffer.subspan(r.pos())).raw<std::uint32_t>();
  if (got != want) throw H5Error("h5lite: checksum mismatch (corrupt file)");
  return f;
}

void File::save(const std::string& filename) const {
  // Atomic write-then-rename: a crash mid-save leaves the previous file (or
  // nothing), never a truncated container.
  write_file_atomic(filename, serialize());
}

namespace {

/// Incremental little-endian reads off a stream for File::scan (the buffer
/// Reader above requires the whole file in memory, which scan avoids).
/// Lengths read from the file are validated against the file size before
/// any allocation or seek, so a corrupt length field raises H5Error instead
/// of attempting a multi-GiB allocation.
class StreamReader {
 public:
  StreamReader(std::ifstream& in, std::uint64_t file_size) : in_(in), file_size_(file_size) {}

  template <typename T>
  T raw() {
    T v;
    in_.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!in_) throw H5Error("h5lite: truncated file");
    return v;
  }
  std::string str() {
    const auto n = raw<std::uint32_t>();
    check_remaining(n, "h5lite: truncated string");
    std::string s(n, '\0');
    in_.read(s.data(), static_cast<std::streamsize>(n));
    if (!in_) throw H5Error("h5lite: truncated string");
    return s;
  }
  void skip(std::uint64_t n) {
    check_remaining(n, "h5lite: truncated file");
    in_.seekg(static_cast<std::streamoff>(n), std::ios::cur);
    if (!in_) throw H5Error("h5lite: truncated file");
  }

 private:
  void check_remaining(std::uint64_t n, const char* what) const {
    const auto pos = static_cast<std::uint64_t>(in_.tellg());
    if (pos > file_size_ || n > file_size_ - pos) throw H5Error(what);
  }

  std::ifstream& in_;
  std::uint64_t file_size_;
};

}  // namespace

FileMeta File::scan(const std::string& filename) {
  std::ifstream in(filename, std::ios::binary | std::ios::ate);
  if (!in) throw H5Error("h5lite: cannot open: " + filename);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  StreamReader r(in, file_size);

  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) throw H5Error("h5lite: bad magic");
  const auto version = r.raw<std::uint32_t>();
  if (version != kVersion) throw H5Error("h5lite: unsupported version");

  FileMeta meta;
  meta.payload_bytes = r.raw<std::uint64_t>();
  const auto n_datasets = r.raw<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_datasets; ++i) {
    const std::string path = r.str();
    DatasetInfo info;
    const auto dtype_raw = r.raw<std::uint8_t>();
    if (dtype_raw > static_cast<std::uint8_t>(DType::I8)) throw H5Error("h5lite: bad dtype");
    info.dtype = static_cast<DType>(dtype_raw);
    const auto ndim = r.raw<std::uint8_t>();
    info.shape.resize(ndim);
    for (auto& d : info.shape) d = r.raw<std::uint64_t>();
    info.nbytes = r.raw<std::uint64_t>();
    check_dataset_bytes(info.shape, info.dtype, info.nbytes);
    r.skip(info.nbytes);  // the point of scan: never touch the payload
    meta.datasets[path] = std::move(info);
  }
  const auto n_attrs = r.raw<std::uint32_t>();
  for (std::uint32_t i = 0; i < n_attrs; ++i) {
    const std::string path = r.str();
    const auto kind = r.raw<std::uint8_t>();
    switch (kind) {
      case 0: meta.attrs[path] = r.raw<double>(); break;
      case 1: meta.attrs[path] = r.raw<std::int64_t>(); break;
      case 2: meta.attrs[path] = r.str(); break;
      default: throw H5Error("h5lite: bad attribute kind");
    }
  }
  return meta;
}

File File::load(const std::string& filename) {
  return deserialize(read_file_bytes(filename));
}

}  // namespace is2::h5
