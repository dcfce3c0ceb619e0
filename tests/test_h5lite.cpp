// h5lite container tests: typed round-trips, attributes, error paths and
// corruption detection (checksum / truncation / bad magic).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string_view>

#include "h5lite/h5file.hpp"

namespace {

using namespace is2::h5;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The bytewise CRC-32 definition crc32 must agree with (reflected
/// polynomial 0xEDB88320, initial value and final XOR 0xFFFFFFFF).
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

/// A well-formed h5lite buffer (valid header and CRC) holding one dataset
/// header with the given dims and byte count and no payload bytes at all:
/// only the length checks stand between its claims and the reader.
std::vector<std::uint8_t> one_dataset_claiming(DType dtype, const std::vector<std::uint64_t>& dims,
                                               std::uint64_t nbytes) {
  ByteWriter body;
  body.raw(std::uint32_t{1});  // one dataset
  body.str("/claim");
  body.raw(static_cast<std::uint8_t>(dtype));
  body.raw(static_cast<std::uint8_t>(dims.size()));
  for (const auto d : dims) body.raw(d);
  body.raw(nbytes);
  body.raw(std::uint32_t{0});  // no attributes
  const auto payload = body.written();
  ByteWriter out;
  out.bytes(reinterpret_cast<const std::uint8_t*>("H5LT"), 4);
  out.raw(std::uint32_t{1});  // version
  out.raw(static_cast<std::uint64_t>(payload.size()));
  out.bytes(payload.data(), payload.size());
  out.raw(crc32_bytewise(payload));
  return out.release();
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(gen());
  return out;
}

TEST(H5Lite, RoundTripAllDtypes) {
  File f;
  f.put<double>("/g/d_f64", std::vector<double>{1.5, -2.5, 3.25});
  f.put<float>("/g/d_f32", std::vector<float>{0.5f, 1.5f});
  f.put<std::int64_t>("/g/d_i64", std::vector<std::int64_t>{-7, 9});
  f.put<std::int32_t>("/g/d_i32", std::vector<std::int32_t>{1, 2, 3, 4});
  f.put<std::uint8_t>("/g/d_u8", std::vector<std::uint8_t>{0, 255});
  f.put<std::int8_t>("/g/d_i8", std::vector<std::int8_t>{-4, 4});

  const auto buf = f.serialize();
  const File g = File::deserialize(buf);
  EXPECT_EQ(g.get<double>("/g/d_f64"), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_EQ(g.get<float>("/g/d_f32"), (std::vector<float>{0.5f, 1.5f}));
  EXPECT_EQ(g.get<std::int64_t>("/g/d_i64"), (std::vector<std::int64_t>{-7, 9}));
  EXPECT_EQ(g.get<std::int32_t>("/g/d_i32"), (std::vector<std::int32_t>{1, 2, 3, 4}));
  EXPECT_EQ(g.get<std::uint8_t>("/g/d_u8"), (std::vector<std::uint8_t>{0, 255}));
  EXPECT_EQ(g.get<std::int8_t>("/g/d_i8"), (std::vector<std::int8_t>{-4, 4}));
}

TEST(H5Lite, ShapeRoundTrip) {
  File f;
  std::vector<double> data(12);
  f.put<double>("/m", data, {3, 4});
  const auto buf = f.serialize();
  const File g = File::deserialize(buf);
  EXPECT_EQ(g.shape("/m"), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(g.dtype("/m"), DType::F64);
}

TEST(H5Lite, ShapeMismatchThrows) {
  File f;
  std::vector<double> data(5);
  EXPECT_THROW(f.put<double>("/m", data, {3, 4}), H5Error);
}

TEST(H5Lite, PathMustBeAbsolute) {
  File f;
  EXPECT_THROW(f.put<double>("relative/path", std::vector<double>{1.0}), H5Error);
}

TEST(H5Lite, AttributesRoundTrip) {
  File f;
  f.set_attr("/a/pi", 3.14);
  f.set_attr("/a/n", std::int64_t{42});
  f.set_attr("/a/name", std::string("granule-x"));
  const File g = File::deserialize(f.serialize());
  EXPECT_DOUBLE_EQ(g.attr_double("/a/pi"), 3.14);
  EXPECT_EQ(g.attr_int("/a/n"), 42);
  EXPECT_EQ(g.attr_string("/a/name"), "granule-x");
  EXPECT_DOUBLE_EQ(g.attr_double("/a/n"), 42.0);  // int readable as double
  EXPECT_THROW(g.attr_int("/a/pi"), H5Error);
  EXPECT_THROW(g.attr("/missing"), H5Error);
}

TEST(H5Lite, MissingDatasetAndDtypeMismatch) {
  File f;
  f.put<double>("/x", std::vector<double>{1.0});
  EXPECT_THROW(f.get<double>("/y"), H5Error);
  EXPECT_THROW(f.get<float>("/x"), H5Error);
}

TEST(H5Lite, ListWithPrefix) {
  File f;
  f.put<double>("/gt1r/heights/h_ph", std::vector<double>{1.0});
  f.put<double>("/gt1r/heights/lat_ph", std::vector<double>{1.0});
  f.put<double>("/gt2r/heights/h_ph", std::vector<double>{1.0});
  EXPECT_EQ(f.list("/gt1r").size(), 2u);
  EXPECT_EQ(f.list().size(), 3u);
}

TEST(H5Lite, CorruptionDetectedByChecksum) {
  File f;
  f.put<double>("/data", std::vector<double>(64, 1.0));
  auto buf = f.serialize();
  buf[buf.size() / 2] ^= 0xFF;  // flip a payload byte
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, TruncationDetected) {
  File f;
  f.put<double>("/data", std::vector<double>(64, 1.0));
  auto buf = f.serialize();
  buf.resize(buf.size() / 2);
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, BadMagicRejected) {
  File f;
  f.put<double>("/data", std::vector<double>{1.0});
  auto buf = f.serialize();
  buf[0] = 'X';
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, Crc32CheckValues) {
  const std::string_view check = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(H5Lite, Crc32MatchesBytewiseReference) {
  // Every length 0-1024 at every start offset 0-15 covers the table path
  // below 64 bytes, the 64-byte entry of the PCLMUL fold, every count of
  // 16-byte folds after the 64-byte blocks, every table-path tail after them
  // and every alignment; one ~2 MB buffer covers bulk data. The slicing-by-8
  // kernel runs the same inputs on its own, so it stays checked on CPUs
  // where crc32 folds with PCLMUL.
  SCOPED_TRACE(std::string("crc32 kernel: ") + crc32_kernel());
  const auto bytes = random_bytes(1024 + 16, 7);
  for (std::size_t offset = 0; offset < 16; ++offset)
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::span<const std::uint8_t> s(bytes.data() + offset, len);
      const std::uint32_t want = crc32_bytewise(s);
      ASSERT_EQ(crc32(s), want) << "offset " << offset << " length " << len;
      ASSERT_EQ(detail::crc32_slicing8(s), want) << "offset " << offset << " length " << len;
    }
  const auto big = random_bytes((2u << 20) + 5, 11);
  const std::uint32_t want = crc32_bytewise(big);
  EXPECT_EQ(crc32(big), want);
  EXPECT_EQ(detail::crc32_slicing8(big), want);
}

TEST(H5Lite, WrappedPayloadLengthRejected) {
  // 16 + payload + 4 wraps to 9 for this payload length; the check must not
  // let the CRC pass read 2^64 - 11 bytes past a short buffer.
  File f;
  f.put<double>("/data", std::vector<double>{1.0, 2.0});
  auto buf = f.serialize();
  const std::uint64_t lie = std::numeric_limits<std::uint64_t>::max() - 10;
  std::memcpy(buf.data() + 8, &lie, sizeof(lie));  // header: magic, version, payload
  EXPECT_THROW(File::deserialize(buf), H5Error);
}

TEST(H5Lite, DatasetLongerThanBufferRejectedBeforeAllocation) {
  // A u8 dataset whose shape and byte count agree on 2^62 bytes in a buffer
  // of a few dozen: the length must be checked before any allocation.
  constexpr std::uint64_t kClaimed = std::uint64_t{1} << 62;
  EXPECT_THROW(File::deserialize(one_dataset_claiming(DType::U8, {kClaimed}, kClaimed)), H5Error);
}

TEST(H5Lite, WrappingShapeProductRejected) {
  // 2^32 x 2^32 elements wrap to 0, which used to agree with a byte count of
  // 0 and yield a dataset whose shape promises 2^64 elements it lacks.
  const std::string path = temp_path("is2_h5lite_wrapping_shape.h5l");
  constexpr std::uint64_t kDim = std::uint64_t{1} << 32;
  const auto buf = one_dataset_claiming(DType::U8, {kDim, kDim}, 0);
  EXPECT_THROW(File::deserialize(buf), H5Error);
  write_file_atomic(path, buf);
  EXPECT_THROW(File::scan(path), H5Error);
  std::remove(path.c_str());
}

TEST(H5Lite, DiskRoundTrip) {
  const std::string path = temp_path("is2_h5lite_test.h5l");
  File f;
  f.put<double>("/d", std::vector<double>{9.0, 8.0});
  f.set_attr("/id", std::string("t"));
  f.save(path);
  const File g = File::load(path);
  EXPECT_EQ(g.get<double>("/d"), (std::vector<double>{9.0, 8.0}));
  std::remove(path.c_str());
  EXPECT_THROW(File::load(path), H5Error);  // gone now
}

TEST(H5Lite, PayloadBytesCounts) {
  File f;
  f.put<double>("/a", std::vector<double>(10));
  f.put<std::uint8_t>("/b", std::vector<std::uint8_t>(3));
  EXPECT_EQ(f.payload_bytes(), 83u);
  EXPECT_EQ(f.dataset_count(), 2u);
}

TEST(H5Lite, ScanReadsMetadataWithoutPayload) {
  const std::string path = temp_path("is2_h5lite_scan.h5l");
  File f;
  std::vector<double> m(12);
  f.put<double>("/g/matrix", m, {3, 4});
  f.put<std::int8_t>("/g/conf", std::vector<std::int8_t>(7));
  f.set_attr("/id", std::string("scan-me"));
  f.set_attr("/pi", 3.25);
  f.set_attr("/n", std::int64_t{42});
  f.save(path);

  const FileMeta meta = File::scan(path);
  EXPECT_EQ(meta.datasets.size(), 2u);
  ASSERT_TRUE(meta.contains("/g/matrix"));
  EXPECT_EQ(meta.datasets.at("/g/matrix").dtype, DType::F64);
  EXPECT_EQ(meta.datasets.at("/g/matrix").shape, (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(meta.datasets.at("/g/matrix").count(), 12u);
  EXPECT_EQ(meta.datasets.at("/g/matrix").nbytes, 96u);
  EXPECT_EQ(meta.datasets.at("/g/conf").dtype, DType::I8);
  EXPECT_EQ(std::get<std::string>(meta.attrs.at("/id")), "scan-me");
  EXPECT_EQ(std::get<double>(meta.attrs.at("/pi")), 3.25);
  EXPECT_EQ(std::get<std::int64_t>(meta.attrs.at("/n")), 42);
  EXPECT_EQ(meta.payload_bytes, f.serialize().size() - 16 - 4);  // body bytes

  std::remove(path.c_str());
  EXPECT_THROW(File::scan(path), H5Error);
}

TEST(H5Lite, ScanRejectsTruncationAndBadMagic) {
  const std::string path = temp_path("is2_h5lite_scan_bad.h5l");
  File f;
  f.put<double>("/data", std::vector<double>(64, 1.0));
  {
    auto buf = f.serialize();
    buf.resize(buf.size() / 2);  // cut inside the dataset payload
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(File::scan(path), H5Error);
  {
    auto buf = f.serialize();
    buf[0] = 'X';
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(File::scan(path), H5Error);
  {
    // Corrupt the first dataset's path-length field to ~4 GiB: scan must
    // raise H5Error without attempting the allocation.
    auto buf = f.serialize();
    buf[20] = buf[21] = buf[22] = buf[23] = 0xFF;  // header(16) + n_datasets(4)
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_THROW(File::scan(path), H5Error);
  std::remove(path.c_str());
}

}  // namespace
