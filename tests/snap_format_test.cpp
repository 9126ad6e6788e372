/**
 * @file
 * Tests for the eaao-snap v1 container: primitive encode/decode
 * round-trips, the bounds-checked reader, and the reject paths a
 * driver turns into exit 2 — truncation, bad magic, a future format
 * version, bit flips caught by the section checksums, and duplicate
 * section ids.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "snap/format.hpp"
#include "snap/snapshotter.hpp"

namespace eaao::snap {
namespace {

std::vector<std::uint8_t>
twoSectionImage()
{
    SectionWriter a;
    a.putU32(7);
    a.putU64(0xdeadbeefcafef00dULL);
    a.putString("hello");
    SectionWriter b;
    b.putF64(-0.0);
    b.putI64(-42);
    SnapshotWriter w;
    w.addSection(1, a.take());
    w.addSection(2, b.take());
    return w.finish();
}

TEST(SnapFormat, PrimitivesRoundTripBitExact)
{
    SectionWriter out;
    out.putU8(0xab);
    out.putU32(0x01020304u);
    out.putU64(~0ULL);
    out.putI64(std::numeric_limits<std::int64_t>::min());
    out.putF64(-0.0);
    out.putF64(std::numeric_limits<double>::quiet_NaN());
    out.putF64(0.1); // not exactly representable: bit pattern must hold
    out.putString("spend=1.00000000000000001");

    SectionReader in(out.bytes().data(), out.bytes().size());
    std::uint8_t u8 = 0;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int64_t i64 = 0;
    double zero = 1.0, nan = 0.0, tenth = 0.0;
    std::string s;
    ASSERT_TRUE(in.getU8(u8));
    ASSERT_TRUE(in.getU32(u32));
    ASSERT_TRUE(in.getU64(u64));
    ASSERT_TRUE(in.getI64(i64));
    ASSERT_TRUE(in.getF64(zero));
    ASSERT_TRUE(in.getF64(nan));
    ASSERT_TRUE(in.getF64(tenth));
    ASSERT_TRUE(in.getString(s));
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(u8, 0xab);
    EXPECT_EQ(u32, 0x01020304u);
    EXPECT_EQ(u64, ~0ULL);
    EXPECT_EQ(i64, std::numeric_limits<std::int64_t>::min());
    EXPECT_TRUE(std::signbit(zero) && zero == 0.0);
    EXPECT_TRUE(std::isnan(nan));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &tenth, 8);
    EXPECT_EQ(bits, 0x3fb999999999999aULL);
    EXPECT_EQ(s, "spend=1.00000000000000001");
}

TEST(SnapFormat, F64ArrayRoundTripsAndBoundsChecks)
{
    const std::vector<double> vals = {
        1.0, -0.0, 0.1, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min()};
    SectionWriter out;
    out.putF64Array(vals.data(), vals.size());

    SectionReader in(out.bytes().data(), out.bytes().size());
    std::vector<double> got(vals.size());
    ASSERT_TRUE(in.getF64Array(got.data(), got.size()));
    EXPECT_EQ(0,
              std::memcmp(vals.data(), got.data(), vals.size() * 8));
    EXPECT_TRUE(in.atEnd());

    SectionReader short_in(out.bytes().data(), out.bytes().size() - 1);
    std::vector<double> over(vals.size());
    EXPECT_FALSE(short_in.getF64Array(over.data(), over.size()));
}

TEST(SnapFormat, ReaderRefusesTruncatedReads)
{
    SectionWriter out;
    out.putU32(5);
    SectionReader in(out.bytes().data(), out.bytes().size());
    std::uint64_t v = 0;
    EXPECT_FALSE(in.getU64(v)); // only 4 bytes present
    std::uint32_t u = 0;
    ASSERT_TRUE(in.getU32(u));
    EXPECT_EQ(u, 5u);
    EXPECT_FALSE(in.getU8(*reinterpret_cast<std::uint8_t *>(&u)));
    EXPECT_EQ(in.take(1), nullptr);
    EXPECT_EQ(in.remaining(), 0u);
}

TEST(SnapFormat, StringLengthIsBoundsChecked)
{
    SectionWriter out;
    out.putU64(1000); // claims 1000 bytes, provides none
    SectionReader in(out.bytes().data(), out.bytes().size());
    std::string s;
    EXPECT_FALSE(in.getString(s));
}

TEST(SnapFormat, ParseRoundTripsSections)
{
    const std::vector<std::uint8_t> image = twoSectionImage();
    SnapshotReader r;
    std::string error;
    ASSERT_TRUE(r.parse(image, error)) << error;
    ASSERT_EQ(r.sectionIds(), (std::vector<std::uint32_t>{1, 2}));
    const SectionView *s1 = r.section(1);
    ASSERT_NE(s1, nullptr);
    SectionReader in(s1->data, s1->size);
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::string s;
    ASSERT_TRUE(in.getU32(u32) && in.getU64(u64) && in.getString(s));
    EXPECT_EQ(u32, 7u);
    EXPECT_EQ(u64, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(s, "hello");
    EXPECT_EQ(r.section(99), nullptr);
}

TEST(SnapFormat, ParseIsThreadCountInvariant)
{
    const std::vector<std::uint8_t> image = twoSectionImage();
    SnapshotReader serial, fanned;
    std::string e1, e2;
    ASSERT_TRUE(serial.parse(image, e1, 1));
    ASSERT_TRUE(fanned.parse(image, e2, 8));
    EXPECT_EQ(serial.sectionIds(), fanned.sectionIds());
}

TEST(SnapFormat, RejectsTruncatedImages)
{
    const std::vector<std::uint8_t> image = twoSectionImage();
    std::string error;
    SnapshotReader r;

    std::vector<std::uint8_t> tiny(image.begin(), image.begin() + 10);
    EXPECT_FALSE(r.parse(tiny, error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;

    // Drop the tail: the section table now points past the end.
    std::vector<std::uint8_t> cut(image.begin(), image.end() - 8);
    EXPECT_FALSE(r.parse(cut, error));
    EXPECT_NE(error.find("section table out of bounds"),
              std::string::npos)
        << error;
}

TEST(SnapFormat, RejectsBadMagic)
{
    std::vector<std::uint8_t> image = twoSectionImage();
    image[0] ^= 0xff;
    std::string error;
    SnapshotReader r;
    EXPECT_FALSE(r.parse(image, error));
    EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(SnapFormat, RejectsNewerFormatVersion)
{
    std::vector<std::uint8_t> image = twoSectionImage();
    image[8] = static_cast<std::uint8_t>(kFormatVersion + 1); // LE u32
    std::string error;
    SnapshotReader r;
    EXPECT_FALSE(r.parse(image, error));
    EXPECT_NE(error.find("newer than this binary supports"),
              std::string::npos)
        << error;

    image[8] = 0;
    EXPECT_FALSE(r.parse(image, error));
    EXPECT_NE(error.find("version 0"), std::string::npos) << error;

    // Every older layout would misparse, so each is refused up front;
    // v4 (dense host-load columns, full helper and spill orders) is the
    // newest.
    EXPECT_EQ(kFormatVersion, 5u);
    for (std::uint32_t v = 1; v < kFormatVersion; ++v) {
        image[8] = static_cast<std::uint8_t>(v);
        EXPECT_FALSE(r.parse(image, error));
        EXPECT_NE(error.find("format v" + std::to_string(v) +
                             " is older than this binary reads (v5)"),
                  std::string::npos)
            << error;
    }
}

TEST(SnapFormat, ChecksumCatchesEveryPayloadBitFlip)
{
    const std::vector<std::uint8_t> clean = twoSectionImage();
    // Flip one bit in each payload byte in turn; parse must fail with
    // a checksum mismatch naming the owning section every time.
    constexpr std::size_t kHeader = 24;
    const std::size_t payload_end = clean.size() - 2 * 32;
    for (std::size_t off = kHeader; off < payload_end; ++off) {
        std::vector<std::uint8_t> image = clean;
        image[off] ^= 0x01;
        std::string error;
        SnapshotReader r;
        ASSERT_FALSE(r.parse(image, error)) << "offset " << off;
        ASSERT_NE(error.find("checksum mismatch"), std::string::npos)
            << error;
    }
}

TEST(SnapFormat, RejectsDuplicateSectionIds)
{
    std::vector<std::uint8_t> image = twoSectionImage();
    // Rewrite section 2's table id (first u32 of the second entry) to 1.
    const std::size_t table = image.size() - 2 * 32;
    image[table + 32] = 1;
    std::string error;
    SnapshotReader r;
    EXPECT_FALSE(r.parse(image, error));
    EXPECT_NE(error.find("duplicate section"), std::string::npos) << error;
}

TEST(SnapFormat, FileRoundTripAndMissingFile)
{
    const std::vector<std::uint8_t> image = twoSectionImage();
    const std::string path =
        ::testing::TempDir() + "/snap_format_roundtrip.bin";
    std::string error;
    ASSERT_TRUE(Snapshotter::writeFile(path, image, error)) << error;
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(Snapshotter::readFile(path, back, error)) << error;
    EXPECT_EQ(back, image);
    std::remove(path.c_str());

    EXPECT_FALSE(
        Snapshotter::readFile("/nonexistent/eaao.snap", back, error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

} // namespace
} // namespace eaao::snap
