#include "objectmodel/value.h"

#include <gtest/gtest.h>

namespace idba {

// Names each ValueRoundTrip case by type and content. gtest's default is a
// dump of the Value's raw bytes, which hold heap addresses and uninitialised
// storage, so the ctest case names changed with every build.
void PrintTo(const Value& v, std::ostream* os) {
  *os << ValueTypeName(v.type());
  if (v.type() == ValueType::kString && v.AsString().size() > 16) {
    *os << " of " << v.AsString().size() << " chars";
  } else if (!v.is_null()) {
    *os << ' ' << v.ToString();
  }
}

namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t(7)).AsInt(), 7);
  EXPECT_EQ(Value(7).type(), ValueType::kInt);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(Oid(9)).AsOid(), Oid(9));
  std::vector<Oid> list = {Oid(1), Oid(2)};
  EXPECT_EQ(Value(list).AsOidList().size(), 2u);
}

TEST(ValueTest, AsNumberWidens) {
  EXPECT_DOUBLE_EQ(Value(3).AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumber(), 2.5);
  EXPECT_DOUBLE_EQ(Value(true).AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(Value("x").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value().AsNumber(), 0.0);
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_NE(Value(3), Value(4));
  EXPECT_NE(Value(3), Value(3.0));  // different types
  EXPECT_EQ(Value("a"), Value(std::string("a")));
}

class ValueRoundTrip : public ::testing::TestWithParam<Value> {};

TEST_P(ValueRoundTrip, EncodeDecode) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  GetParam().EncodeTo(&enc);
  Decoder dec(buf);
  Value out;
  ASSERT_TRUE(Value::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out, GetParam());
  EXPECT_TRUE(dec.exhausted());
  // The reference walker consumes the same bytes and yields only OIDs.
  Decoder walk(buf);
  std::optional<Oid> oid;
  ASSERT_TRUE(Value::DecodeOid(&walk, &oid).ok());
  EXPECT_TRUE(walk.exhausted());
  EXPECT_EQ(oid.has_value(), GetParam().type() == ValueType::kOid);
  if (oid) EXPECT_EQ(*oid, GetParam().AsOid());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValueRoundTrip,
    ::testing::Values(Value(), Value(int64_t(-5)), Value(int64_t(1) << 40),
                      Value(0.0), Value(-123.456), Value(true), Value(false),
                      Value(""), Value("utilization"),
                      Value(std::string(300, 'z')), Value(Oid(0)),
                      Value(Oid(~0ULL)), Value(std::vector<Oid>{}),
                      Value(std::vector<Oid>{Oid(1), Oid(99), Oid(12345)})));

TEST(ValueTest, WireBytesMatchesEncodedSizeClosely) {
  for (const Value& v :
       {Value(), Value(42), Value(2.5), Value("some string"), Value(Oid(7)),
        Value(std::vector<Oid>{Oid(1), Oid(2), Oid(3)})}) {
    std::vector<uint8_t> buf;
    Encoder enc(&buf);
    v.EncodeTo(&enc);
    // WireBytes is an upper-bound estimate (varint headroom).
    EXPECT_GE(v.WireBytes(), buf.size());
    EXPECT_LE(v.WireBytes(), buf.size() + 8);
  }
}

TEST(ValueTest, MemoryBytesGrowsWithContent) {
  EXPECT_GT(Value(std::string(1000, 'a')).MemoryBytes(),
            Value("short").MemoryBytes());
  EXPECT_GT(Value(std::vector<Oid>(100)).MemoryBytes(),
            Value(std::vector<Oid>(1)).MemoryBytes());
}

TEST(ValueTest, DecodeRejectsUnknownTag) {
  std::vector<uint8_t> buf = {0x77};
  Decoder dec(buf);
  Value out;
  EXPECT_EQ(Value::DecodeFrom(&dec, &out).code(), StatusCode::kCorruption);
  Decoder walk(buf);
  std::optional<Oid> oid;
  EXPECT_EQ(Value::DecodeOid(&walk, &oid).code(), StatusCode::kCorruption);
}

TEST(ValueTest, DecodeRejectsListCountsPastTheBuffer) {
  // An oid list claiming 2^60 elements, followed by one.
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.PutU8(static_cast<uint8_t>(ValueType::kOidList));
  enc.PutVarint(uint64_t{1} << 60);
  enc.PutU64(7);
  Decoder dec(buf);
  Value out;
  EXPECT_EQ(Value::DecodeFrom(&dec, &out).code(), StatusCode::kCorruption);
  Decoder walk(buf);
  std::optional<Oid> oid;
  EXPECT_EQ(Value::DecodeOid(&walk, &oid).code(), StatusCode::kCorruption);
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value().ToString(), "null");
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("x").ToString(), "\"x\"");
  EXPECT_EQ(Value(std::vector<Oid>{Oid(1), Oid(2)}).ToString(), "[1,2]");
}

TEST(ValueTest, TypeNames) {
  EXPECT_EQ(ValueTypeName(ValueType::kInt), "int");
  EXPECT_EQ(ValueTypeName(ValueType::kOidList), "oid_list");
}

}  // namespace
}  // namespace idba
