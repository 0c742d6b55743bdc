#include "objectmodel/object.h"

#include <gtest/gtest.h>

namespace idba {
namespace {

class ObjectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    link_ = catalog_.DefineClass("Link").value();
    ASSERT_TRUE(catalog_.AddAttribute(link_, "Name", ValueType::kString).ok());
    ASSERT_TRUE(
        catalog_.AddAttribute(link_, "Utilization", ValueType::kDouble, Value(0.0))
            .ok());
    ASSERT_TRUE(catalog_.AddAttribute(link_, "From", ValueType::kOid).ok());
  }

  DatabaseObject MakeLink(uint64_t oid) {
    DatabaseObject obj(Oid(oid), link_, 3);
    obj.Set(0, Value("link-1"));
    obj.Set(1, Value(0.7));
    obj.Set(2, Value(Oid(100)));
    return obj;
  }

  SchemaCatalog catalog_;
  ClassId link_;
};

TEST_F(ObjectTest, NamedAccess) {
  DatabaseObject obj = MakeLink(1);
  EXPECT_EQ(obj.GetByName(catalog_, "Name").value(), Value("link-1"));
  EXPECT_EQ(obj.GetByName(catalog_, "Utilization").value(), Value(0.7));
  EXPECT_EQ(obj.GetByName(catalog_, "Bogus").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(obj.SetByName(catalog_, "Utilization", Value(0.9)).ok());
  EXPECT_EQ(obj.Get(1), Value(0.9));
  EXPECT_EQ(obj.SetByName(catalog_, "Bogus", Value(1)).code(),
            StatusCode::kNotFound);
}

TEST_F(ObjectTest, VersionBumps) {
  DatabaseObject obj = MakeLink(1);
  EXPECT_EQ(obj.version(), 0u);
  obj.BumpVersion();
  EXPECT_EQ(obj.version(), 1u);
  obj.set_version(41);
  obj.BumpVersion();
  EXPECT_EQ(obj.version(), 42u);
}

TEST_F(ObjectTest, EncodeDecodeRoundTrip) {
  DatabaseObject obj = MakeLink(7);
  obj.set_version(3);
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  obj.EncodeTo(&enc);
  Decoder dec(buf);
  DatabaseObject out;
  ASSERT_TRUE(DatabaseObject::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out, obj);
  EXPECT_EQ(out.oid(), Oid(7));
  EXPECT_EQ(out.version(), 3u);
  EXPECT_EQ(out.class_id(), link_);
  EXPECT_TRUE(dec.exhausted());
  // The header decoder reads the same fields.
  Decoder head(buf);
  ObjectHeader h;
  ASSERT_TRUE(DatabaseObject::DecodeHeader(&head, &h).ok());
  EXPECT_EQ(h.oid, Oid(7));
  EXPECT_EQ(h.class_id, link_);
  EXPECT_EQ(h.version, 3u);
  EXPECT_EQ(h.attr_count, 3u);
}

TEST_F(ObjectTest, DecodeRefsFindsTheReferencesRefsFinds) {
  // Every value type, references in slots 2 and 5 (one of them null).
  DatabaseObject obj(Oid(9), link_, 7);
  obj.Set(0, Value(std::string(200, 'n')));
  obj.Set(1, Value(0.5));
  obj.Set(2, Value(Oid(100)));
  obj.Set(3, Value(std::vector<Oid>{Oid(1), Oid(2)}));
  obj.Set(4, Value(true));
  obj.Set(5, Value(kNullOid));
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  obj.EncodeTo(&enc);
  std::vector<ObjectRef> from_memory, from_bytes = {{99, Oid(99)}};
  obj.Refs(&from_memory);
  Decoder dec(buf);
  ASSERT_TRUE(DatabaseObject::DecodeRefs(&dec, &from_bytes).ok());
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(from_bytes, (std::vector<ObjectRef>{{2, Oid(100)}, {5, kNullOid}}));
  EXPECT_EQ(from_memory, from_bytes);
  // A truncated image is corruption, not a short list.
  Decoder cut(buf.data(), buf.size() - 1);
  EXPECT_EQ(DatabaseObject::DecodeRefs(&cut, &from_bytes).code(),
            StatusCode::kCorruption);
}

TEST_F(ObjectTest, WireBytesBoundsEncodedSize) {
  DatabaseObject obj = MakeLink(7);
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  obj.EncodeTo(&enc);
  EXPECT_GE(obj.WireBytes(), buf.size());
  EXPECT_LE(obj.WireBytes(), buf.size() + 32);
}

TEST_F(ObjectTest, MemoryBytesTracksStringGrowth) {
  DatabaseObject small = MakeLink(1);
  DatabaseObject big = MakeLink(2);
  big.Set(0, Value(std::string(5000, 'n')));
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes() + 4000);
}

TEST_F(ObjectTest, ToStringNamesAttributes) {
  DatabaseObject obj = MakeLink(7);
  std::string s = obj.ToString(catalog_);
  EXPECT_NE(s.find("Link"), std::string::npos);
  EXPECT_NE(s.find("Utilization=0.7"), std::string::npos);
  EXPECT_NE(s.find("oid:7"), std::string::npos);
}

TEST_F(ObjectTest, DecodeCorruptionDetected) {
  std::vector<uint8_t> buf = {1, 2, 3};
  Decoder dec(buf);
  DatabaseObject out;
  EXPECT_EQ(DatabaseObject::DecodeFrom(&dec, &out).code(),
            StatusCode::kCorruption);
}

TEST(OidTest, HashAndCompare) {
  EXPECT_TRUE(kNullOid.IsNull());
  EXPECT_FALSE(Oid(1).IsNull());
  EXPECT_LT(Oid(1), Oid(2));
  EXPECT_EQ(Oid(5).ToString(), "oid:5");
  std::hash<Oid> h;
  EXPECT_NE(h(Oid(1)), h(Oid(2)));
}

}  // namespace
}  // namespace idba
