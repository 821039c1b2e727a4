// util/canonical_json.hpp: the canonical serializer and the stable
// content hash behind campaign cache fingerprints.  The hash values
// pinned here are load-bearing: they guard every existing on-disk
// campaign cache, so a mismatch means the algorithm changed and every
// cache is silently invalid.
#include "util/canonical_json.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/json.hpp"

namespace adacheck::util {
namespace {

std::string canon(const std::string& text) {
  return canonical_json(json::parse(text));
}

// --- canonical form ------------------------------------------------------

TEST(CanonicalJson, SortsObjectKeysAndDropsWhitespace) {
  EXPECT_EQ(canon("{\"b\": 1, \"a\": 2}"), "{\"a\":2,\"b\":1}");
  EXPECT_EQ(canon("{ \"b\" : { \"d\" : 1 , \"c\" : 2 } , \"a\" : [ 1 , 2 ] }"),
            "{\"a\":[1,2],\"b\":{\"c\":2,\"d\":1}}");
}

TEST(CanonicalJson, KeyOrderNeverMatters) {
  EXPECT_EQ(canon("{\"seed\": 7, \"runs\": 100, \"validate\": false}"),
            canon("{\"validate\": false, \"runs\": 100, \"seed\": 7}"));
}

TEST(CanonicalJson, ArrayOrderIsSemanticAndPreserved) {
  EXPECT_NE(canon("[1, 2, 3]"), canon("[3, 2, 1]"));
  EXPECT_EQ(canon("[1, 2, 3]"), "[1,2,3]");
}

TEST(CanonicalJson, NumberSpellingNormalizes) {
  // 1e2, 100.0, and 100 are the same double -> one canonical spelling.
  EXPECT_EQ(canon("[1e2, 100.0, 100]"), "[100,100,100]");
  EXPECT_EQ(canon("0.0014"), canon("1.4e-3"));
}

TEST(CanonicalJson, ScalarsAndEscapes) {
  EXPECT_EQ(canon("null"), "null");
  EXPECT_EQ(canon("true"), "true");
  EXPECT_EQ(canon("false"), "false");
  EXPECT_EQ(canon("\"a\\n\\t\\\"b\\\\\""), "\"a\\n\\t\\\"b\\\\\"");
  EXPECT_EQ(canon("\"\\u0001\""), "\"\\u0001\"");
  EXPECT_EQ(canon("{}"), "{}");
  EXPECT_EQ(canon("[]"), "[]");
}

TEST(CanonicalJson, GoldenEscapesAndNumbers) {
  // Minimal escaping: \t \r \" \\ short forms, other control bytes as
  // \u00XX, DEL and UTF-8 verbatim.
  EXPECT_EQ(canon(R"("t\t\r\u001f\u007fé \"q\" \\")"),
            "\"t\\t\\r\\u001f\x7f\xc3\xa9 \\\"q\\\" \\\\\"");
  EXPECT_EQ(canon(R"("a\u0000b")"), "\"a\\u0000b\"");
  // Shortest round-trip spelling; 2^53 + 1 is not a double.
  EXPECT_EQ(canon("[0.1, 1e-7, 1e21, -0.0, 5e-324, 1E2, 9007199254740993]"),
            "[0.1,1e-07,1e+21,-0,5e-324,100,9007199254740992]");
  EXPECT_EQ(canon(R"({"b": {}, "a": [], "é": null, "Z": [[], {}]})"),
            "{\"Z\":[[],{}],\"a\":[],\"b\":{},\"\xc3\xa9\":null}");
}

TEST(CanonicalJson, MixedDocument) {
  EXPECT_EQ(
      canon("{\"b\": 1e2, \"a\": [1.5, \"x\\n\"], "
            "\"c\": {\"z\": null, \"y\": true}}"),
      "{\"a\":[1.5,\"x\\n\"],\"b\":100,\"c\":{\"y\":true,\"z\":null}}");
}

TEST(CanonicalJson, RoundTripsThroughItself) {
  const std::string once = canon(
      "{\"experiments\": [{\"id\": \"t\", \"rows\": [{\"utilization\": "
      "0.76, \"lambda\": 1.4e-3}]}], \"seed\": 1592614637}");
  EXPECT_EQ(canon(once), once);
}

// --- content hash --------------------------------------------------------

TEST(ContentHash128, KnownAnswers) {
  // Pinned values: see file comment.  Do not update these without
  // understanding that every existing campaign cache becomes stale.
  EXPECT_EQ(content_hash128("").hex(), "c3817c016ba4ff304063e00bcd986211");
  EXPECT_EQ(content_hash128("abc").hex(),
            "ae8f9d04ad1dc10de75a874630e4c864");
  EXPECT_EQ(content_hash128("adacheck").hex(),
            "b47cf94d8689046bb99dc64d173e5897");
}

TEST(ContentHash128, HexIs32LowercaseChars) {
  const std::string hex = content_hash128("anything").hex();
  ASSERT_EQ(hex.size(), 32u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
}

TEST(ContentHash128, SensitiveToEveryByte) {
  const Hash128 base = content_hash128("campaign cell");
  EXPECT_NE(base, content_hash128("campaign celL"));
  EXPECT_NE(base, content_hash128("campaign cell "));
  EXPECT_NE(base, content_hash128("Campaign cell"));
  // Length extension of a zero byte still changes the digest.
  EXPECT_NE(content_hash128(std::string("\0", 1)),
            content_hash128(std::string("\0\0", 2)));
}

TEST(ContentHash128, LanesAreDecorrelated) {
  // If both lanes ever collapsed to the same function, hi == lo for
  // every input and the digest would only be 64 bits strong.
  EXPECT_NE(content_hash128("abc").hi, content_hash128("abc").lo);
  EXPECT_NE(content_hash128("").hi, content_hash128("").lo);
}

TEST(ContentHash128, EqualityOperator) {
  EXPECT_EQ(content_hash128("same"), content_hash128("same"));
  EXPECT_FALSE(content_hash128("same") == content_hash128("diff"));
}

}  // namespace
}  // namespace adacheck::util
