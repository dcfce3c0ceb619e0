// h5lite: a small self-describing hierarchical container standing in for
// HDF5 (no system HDF5 in this environment). It keeps the properties the
// pipeline relies on: group/dataset paths ("/gt1r/heights/h_ph"), typed
// n-dimensional arrays, scalar/string attributes, and whole-file load cost
// proportional to data volume (which the Table II/V LOAD phase measures).
//
// On-disk layout (little-endian):
//   magic "H5LT" | u32 version | u64 payload_bytes
//   u32 n_datasets | per dataset: path, u8 dtype, u8 ndim, u64 dims[],
//                    u64 nbytes, raw bytes
//   u32 n_attrs    | per attr: path, u8 kind, value
//   u32 crc32 of everything after the 16-byte header
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace is2::h5 {

enum class DType : std::uint8_t { F64 = 0, F32 = 1, I64 = 2, I32 = 3, U8 = 4, I8 = 5 };

std::size_t dtype_size(DType t);
const char* dtype_name(DType t);

template <typename T>
struct dtype_of;
template <> struct dtype_of<double> { static constexpr DType value = DType::F64; };
template <> struct dtype_of<float> { static constexpr DType value = DType::F32; };
template <> struct dtype_of<std::int64_t> { static constexpr DType value = DType::I64; };
template <> struct dtype_of<std::int32_t> { static constexpr DType value = DType::I32; };
template <> struct dtype_of<std::uint8_t> { static constexpr DType value = DType::U8; };
template <> struct dtype_of<std::int8_t> { static constexpr DType value = DType::I8; };

/// Error type for malformed files, missing paths and dtype mismatches.
class H5Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

using AttrValue = std::variant<double, std::int64_t, std::string>;

/// Shape/dtype of one dataset as recorded in its on-disk header.
struct DatasetInfo {
  DType dtype = DType::F64;
  std::vector<std::uint64_t> shape;
  std::uint64_t nbytes = 0;

  std::uint64_t count() const {
    std::uint64_t n = 1;
    for (auto d : shape) n *= d;
    return n;
  }
};

/// Everything a file describes about itself without its dataset payloads:
/// per-dataset dtype/shape and all attributes. Produced by File::scan, which
/// seeks over the raw dataset bytes instead of reading them, so the cost is
/// proportional to the number of entries, not the data volume. Because the
/// payload is never read, the trailing CRC is NOT verified — use File::load
/// when integrity matters more than speed.
struct FileMeta {
  std::map<std::string, DatasetInfo> datasets;
  std::map<std::string, AttrValue> attrs;
  std::uint64_t payload_bytes = 0;  ///< serialized body size from the file header

  bool contains(const std::string& path) const { return datasets.count(path) != 0; }
};

/// In-memory file tree with binary (de)serialization.
class File {
 public:
  /// Store a typed array under `path` (creates/overwrites). `shape` empty
  /// means 1-D of data.size().
  template <typename T>
  void put(const std::string& path, std::span<const T> data,
           std::vector<std::uint64_t> shape = {}) {
    validate_path(path);
    if (shape.empty()) shape = {static_cast<std::uint64_t>(data.size())};
    std::uint64_t n = 1;
    for (auto d : shape) n *= d;
    if (n != data.size()) throw H5Error("h5lite: shape does not match data size for " + path);
    Entry e;
    e.dtype = dtype_of<T>::value;
    e.shape = std::move(shape);
    e.bytes.resize(data.size() * sizeof(T));
    std::memcpy(e.bytes.data(), data.data(), e.bytes.size());
    datasets_[path] = std::move(e);
  }

  template <typename T>
  void put(const std::string& path, const std::vector<T>& data,
           std::vector<std::uint64_t> shape = {}) {
    put<T>(path, std::span<const T>(data), std::move(shape));
  }

  /// Read a typed array; throws H5Error on missing path or dtype mismatch.
  template <typename T>
  std::vector<T> get(const std::string& path) const {
    const Entry& e = entry(path);
    if (e.dtype != dtype_of<T>::value)
      throw H5Error("h5lite: dtype mismatch reading " + path + " (stored " +
                    dtype_name(e.dtype) + ")");
    std::vector<T> out(e.bytes.size() / sizeof(T));
    std::memcpy(out.data(), e.bytes.data(), e.bytes.size());
    return out;
  }

  bool contains(const std::string& path) const { return datasets_.count(path) != 0; }
  std::vector<std::uint64_t> shape(const std::string& path) const { return entry(path).shape; }
  DType dtype(const std::string& path) const { return entry(path).dtype; }
  /// All dataset paths with the given prefix (lexicographic order).
  std::vector<std::string> list(const std::string& prefix = "") const;

  void set_attr(const std::string& path, AttrValue value) { attrs_[path] = std::move(value); }
  bool has_attr(const std::string& path) const { return attrs_.count(path) != 0; }
  const AttrValue& attr(const std::string& path) const;
  double attr_double(const std::string& path) const;
  std::int64_t attr_int(const std::string& path) const;
  std::string attr_string(const std::string& path) const;

  std::size_t dataset_count() const { return datasets_.size(); }
  /// Total payload bytes across datasets (proxy for granule size).
  std::size_t payload_bytes() const;

  void save(const std::string& filename) const;
  static File load(const std::string& filename);
  /// Header-only read: dataset dtypes/shapes and attributes, skipping every
  /// dataset payload (and therefore the CRC check). O(entries), not O(bytes).
  static FileMeta scan(const std::string& filename);

  std::vector<std::uint8_t> serialize() const;
  static File deserialize(std::span<const std::uint8_t> buffer);

 private:
  struct Entry {
    DType dtype = DType::F64;
    std::vector<std::uint64_t> shape;
    std::vector<std::uint8_t> bytes;
  };

  const Entry& entry(const std::string& path) const;
  static void validate_path(const std::string& path);

  std::map<std::string, Entry> datasets_;
  std::map<std::string, AttrValue> attrs_;
};

/// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial value and
/// final XOR 0xFFFFFFFF) used for file integrity; the values are those of
/// the bytewise definition. On x86-64 CPUs with PCLMULQDQ and SSE4.1
/// (detected once per process, no setting) inputs of 64 bytes or more fold
/// 64 bytes per step by carry-less multiplication; everything else, and the
/// last < 16 bytes, runs slicing-by-8, eight bytes per table step.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// The kernel crc32 runs for inputs of 64 bytes or more on this CPU:
/// "pclmul" or "slicing-by-8".
const char* crc32_kernel();

namespace detail {
/// crc32's table kernel on its own, whatever the CPU: declared so tests
/// check it also where crc32 itself folds with PCLMULQDQ.
std::uint32_t crc32_slicing8(std::span<const std::uint8_t> data);
}  // namespace detail

// ---------------------------------------------------------------------------
// Generic little-endian block IO
// ---------------------------------------------------------------------------
// The primitives the h5lite format is built from, exposed so other versioned
// binary formats (e.g. the serve disk product cache) share one set of
// bounds-checked encode/decode routines instead of reinventing them.

/// Append-only little-endian byte buffer written at a cursor: fixed-width
/// scalars via raw<T>(), length-prefixed strings via str(), and append(n)
/// for a block the caller fills itself. Constructed with the encoded size,
/// it allocates once and each write is a bounds compare and a store; past
/// that size it grows geometrically.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t size) : buf_(size) {}

  template <typename T>
  void raw(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(append(sizeof(T)), &v, sizeof(T));
  }
  void bytes(const std::uint8_t* p, std::size_t n) {
    std::uint8_t* to = append(n);
    if (n != 0) std::memcpy(to, p, n);
  }
  void str(const std::string& s) {
    raw(static_cast<std::uint32_t>(s.size()));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  /// Appends n bytes for the caller to fill, after one bounds check for all
  /// of them, and returns where they start (valid until the next write).
  std::uint8_t* append(std::size_t n) {
    if (n > buf_.size() - pos_) buf_.resize(std::max(2 * buf_.size(), pos_ + n));
    std::uint8_t* at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }

  /// The bytes written so far.
  std::span<const std::uint8_t> written() const { return {buf_.data(), pos_}; }
  /// Moves the written bytes out; the writer is left empty.
  std::vector<std::uint8_t> release() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;  ///< [0, pos_) written, the rest spare
  std::size_t pos_ = 0;
};

/// Bounds-checked sequential reader over an in-memory buffer; every read
/// past the end throws H5Error("truncated ...") instead of reading garbage.
/// Each check compares the requested length with remaining(), which cannot
/// wrap, so a length field read from the buffer may hold any value.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> b) : buf_(b) {}

  template <typename T>
  T raw() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) throw H5Error("h5lite: truncated file");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void bytes(std::uint8_t* p, std::size_t n) {
    const std::uint8_t* from = take(n);
    if (n != 0) std::memcpy(p, from, n);
  }
  /// The next n bytes in place, after one bounds check for all of them.
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) throw H5Error("h5lite: truncated file");
    const std::uint8_t* at = buf_.data() + pos_;
    pos_ += n;
    return at;
  }
  std::string str() {
    const auto n = raw<std::uint32_t>();
    if (n > remaining()) throw H5Error("h5lite: truncated string");
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Whole-file read into memory; throws H5Error when unreadable.
std::vector<std::uint8_t> read_file_bytes(const std::string& filename);

/// Crash-safe whole-file write: the bytes land in a same-directory temp file
/// which is atomically renamed over `filename`, so readers only ever see the
/// old content or the complete new content — never a partial write.
void write_file_atomic(const std::string& filename, std::span<const std::uint8_t> bytes);

}  // namespace is2::h5
