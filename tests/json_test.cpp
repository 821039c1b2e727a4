// The strict JSON parser (util/json): value-tree construction,
// line/column error reporting, and the round-trip pin against the
// harness/json_report writer — parse(sweep_json(...)) must preserve
// every key and value of the adacheck-sweep-v6 schema.  Also the golden
// bytes of obs::JsonWriter, the one emitter every document goes through.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "harness/json_report.hpp"
#include "harness/sweep.hpp"
#include "obs/json_writer.hpp"
#include "util/version.hpp"

namespace adacheck::util::json {
namespace {

// --- basic values --------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse(" 0 ").as_int(), 0);
  EXPECT_DOUBLE_EQ(parse("-0").as_number(), 0.0);
}

TEST(Json, ParsesNestedContainers) {
  const Value doc = parse(R"({"a": [1, 2, {"b": null}], "c": {}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.as_object().size(), 2u);
  const Value* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[1].as_int(), 2);
  EXPECT_TRUE(a->as_array()[2].find("b")->is_null());
  EXPECT_TRUE(doc.find("c")->as_object().empty());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ObjectPreservesDocumentOrder) {
  const Value doc = parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xC3\xA9");
  // Surrogate pair -> one 4-byte UTF-8 code point.
  EXPECT_EQ(parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, ValuesRememberTheirPosition) {
  const Value doc = parse("{\n  \"a\": [true]\n}");
  EXPECT_EQ(doc.line(), 1);
  EXPECT_EQ(doc.column(), 1);
  const Value& a = *doc.find("a");
  EXPECT_EQ(a.line(), 2);
  EXPECT_EQ(a.column(), 8);
  EXPECT_EQ(a.as_array()[0].line(), 2);
  EXPECT_EQ(a.as_array()[0].column(), 9);
}

TEST(Json, TypeErrorsNameBothKinds) {
  const Value doc = parse(R"({"a": "text"})");
  try {
    doc.find("a")->as_number();
    FAIL() << "expected TypeError";
  } catch (const TypeError& e) {
    EXPECT_NE(std::string(e.what()).find("expected number, got string"),
              std::string::npos);
  }
  EXPECT_THROW(parse("[1]").as_object(), TypeError);
  EXPECT_THROW(parse("1.5").as_int(), TypeError);
  EXPECT_THROW(parse("1e300").as_int(), TypeError);  // beyond 2^53
}

// --- malformed input: every error carries line/column --------------------

void expect_parse_error(std::string_view text, int line, int column,
                        std::string_view message_piece) {
  try {
    parse(text);
    FAIL() << "expected ParseError for: " << text;
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line) << text << " -> " << e.what();
    EXPECT_EQ(e.column(), column) << text << " -> " << e.what();
    EXPECT_NE(std::string(e.what()).find(message_piece), std::string::npos)
        << e.what();
    // The position must be in the message itself, not just accessors.
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(JsonErrors, TruncatedDocuments) {
  expect_parse_error("", 1, 1, "unexpected end of input");
  expect_parse_error("{\"a\": 1", 1, 8, "inside object");
  expect_parse_error("[1, 2", 1, 6, "inside array");
  expect_parse_error("\"abc", 1, 5, "unterminated string");
  expect_parse_error("{\"a\":", 1, 6, "unexpected end of input");
  expect_parse_error("tru", 1, 1, "invalid literal");
}

TEST(JsonErrors, DuplicateKeysRejectedAtTheSecondKey) {
  expect_parse_error("{\n  \"a\": 1,\n  \"a\": 2\n}", 3, 3,
                     "duplicate key \"a\"");
}

TEST(JsonErrors, BadEscapes) {
  expect_parse_error(R"(["a\qb"])", 1, 4, "invalid escape sequence '\\q'");
  expect_parse_error(R"("\u00g1")", 1, 2, "invalid hex digit");
  expect_parse_error(R"("\ud83d x")", 1, 2, "unpaired surrogate");
  expect_parse_error(R"("\ude00")", 1, 2, "unpaired surrogate");
}

TEST(JsonErrors, NanAndInfinityLiteralsRejected) {
  expect_parse_error("{\"e\": NaN}", 1, 7, "NaN");
  expect_parse_error("[Infinity]", 1, 2, "Infinity");
  expect_parse_error("1e999", 1, 1, "out of range");
}

TEST(JsonErrors, StructuralMistakes) {
  expect_parse_error("[1, ]", 1, 5, "trailing commas");
  expect_parse_error("{\"a\": 1,}", 1, 9, "trailing commas");
  expect_parse_error("{} {}", 1, 4, "trailing content");
  expect_parse_error("[01]", 1, 3, "leading zeros");
  expect_parse_error("[1.]", 1, 4, "digit after '.'");
  expect_parse_error("[1e]", 1, 4, "exponent");
  expect_parse_error("{1: 2}", 1, 2, "keys must be strings");
  expect_parse_error("\"a\nb\"", 1, 3, "control character");
  const std::string deep(300, '[');
  expect_parse_error(deep, 1, 202, "nesting too deep");
}

// --- round-trip against the sweep-report writer --------------------------

harness::ExperimentSpec roundtrip_spec() {
  harness::ExperimentSpec spec;
  spec.id = "jsontest";
  spec.title = "json round-trip grid";
  spec.costs = model::CheckpointCosts::paper_scp_flavor();
  spec.deadline = 10'000.0;
  spec.fault_tolerance = 5;
  spec.speed_ratio = 2.0;
  spec.util_level = 0;
  spec.schemes = {"Poisson", "A_D_S"};
  // The U = 1.2 row is infeasible at f1: the Poisson baseline never
  // succeeds there, so its E is NaN and must round-trip as null.
  spec.rows = {{0.76, 1.4e-3, {}}, {1.2, 1.0e-4, {}}};
  return spec;
}

void expect_cell_preserved(const Value& cell, const std::string& scheme,
                           const sim::CellStats& stats) {
  const char* const keys[] = {
      "scheme", "trials", "successes", "p", "p_lo", "p_hi", "e", "e_ci95",
      "e_all", "finish_time", "faults", "rollbacks", "corrections",
      "high_speed_cycles", "aborted_runs", "validation_failures",
      "runs_executed", "p_halfwidth", "e_rel_halfwidth"};
  EXPECT_EQ(cell.as_object().size(), std::size(keys));
  for (const char* key : keys) {
    EXPECT_NE(cell.find(key), nullptr) << "missing cell key " << key;
  }
  EXPECT_EQ(cell.find("scheme")->as_string(), scheme);
  EXPECT_EQ(cell.find("trials")->as_int(),
            static_cast<std::int64_t>(stats.completion.trials()));
  EXPECT_EQ(cell.find("successes")->as_int(),
            static_cast<std::int64_t>(stats.completion.successes()));
  // Shortest-round-trip double formatting means equality is exact.
  EXPECT_EQ(cell.find("p")->as_number(), stats.probability());
  EXPECT_EQ(cell.find("p_lo")->as_number(), stats.completion.wilson_lo());
  EXPECT_EQ(cell.find("p_hi")->as_number(), stats.completion.wilson_hi());
  if (std::isfinite(stats.energy())) {
    EXPECT_EQ(cell.find("e")->as_number(), stats.energy());
  } else {
    EXPECT_TRUE(cell.find("e")->is_null());
  }
  EXPECT_EQ(cell.find("e_all")->as_number(), stats.energy_all.mean());
  EXPECT_EQ(cell.find("faults")->as_number(), stats.faults.mean());
  EXPECT_EQ(cell.find("rollbacks")->as_number(), stats.rollbacks.mean());
  EXPECT_EQ(cell.find("aborted_runs")->as_int(),
            static_cast<std::int64_t>(stats.aborted_runs));
  // v4 additions: runs_executed mirrors trials; the achieved
  // half-widths match the statistics helpers (null when NaN, e.g. a
  // cell with fewer than two successful runs).
  EXPECT_EQ(cell.find("runs_executed")->as_int(),
            static_cast<std::int64_t>(stats.completion.trials()));
  EXPECT_EQ(cell.find("p_halfwidth")->as_number(),
            stats.completion.wilson_halfwidth());
  const double e_rel = stats.energy_success.rel_ci95_halfwidth();
  if (std::isfinite(e_rel)) {
    EXPECT_EQ(cell.find("e_rel_halfwidth")->as_number(), e_rel);
  } else {
    EXPECT_TRUE(cell.find("e_rel_halfwidth")->is_null());
  }
}

TEST(JsonRoundTrip, SweepReportParsesAndPreservesEveryKey) {
  const auto spec = roundtrip_spec();
  sim::MonteCarloConfig config;
  config.runs = 60;
  config.seed = 0x1234;
  const auto sweep = harness::run_sweep({spec}, config);

  for (const bool include_perf : {false, true}) {
    const std::string text = harness::sweep_json(sweep, {include_perf});
    const Value doc = parse(text);

    EXPECT_EQ(doc.as_object().size(), include_perf ? 4u : 3u);
    EXPECT_EQ(doc.find("schema")->as_string(), "adacheck-sweep-v6");

    const Value& cfg = *doc.find("config");
    EXPECT_EQ(cfg.as_object().size(), 4u);
    EXPECT_EQ(cfg.find("version")->as_string(),
              adacheck::util::version_string());
    EXPECT_EQ(cfg.find("runs")->as_int(), 60);
    EXPECT_EQ(cfg.find("seed")->as_int(), 0x1234);
    EXPECT_FALSE(cfg.find("validate")->as_bool());

    if (include_perf) {
      const Value& perf = *doc.find("perf");
      EXPECT_EQ(perf.find("total_runs")->as_int(), 60 * 4);
      EXPECT_EQ(perf.find("cells")->as_int(), 4);
    } else {
      EXPECT_EQ(doc.find("perf"), nullptr);
    }

    const auto& experiments = doc.find("experiments")->as_array();
    ASSERT_EQ(experiments.size(), 1u);
    const Value& experiment = experiments[0];
    EXPECT_EQ(experiment.find("id")->as_string(), spec.id);
    EXPECT_EQ(experiment.find("title")->as_string(), spec.title);

    const Value& environment = *experiment.find("environment");
    EXPECT_EQ(environment.find("name")->as_string(), "poisson");
    EXPECT_EQ(environment.find("arrival")->as_string(), "exponential");
    EXPECT_EQ(environment.find("rate_multiplier")->as_number(), 1.0);
    EXPECT_FALSE(environment.find("burst")->find("enabled")->as_bool());

    const auto& schemes = experiment.find("schemes")->as_array();
    ASSERT_EQ(schemes.size(), spec.schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      EXPECT_EQ(schemes[s].as_string(), spec.schemes[s]);
    }

    const auto& rows = experiment.find("rows")->as_array();
    ASSERT_EQ(rows.size(), spec.rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(rows[r].find("utilization")->as_number(),
                spec.rows[r].utilization);
      EXPECT_EQ(rows[r].find("lambda")->as_number(), spec.rows[r].lambda);
      const auto& cells = rows[r].find("cells")->as_array();
      ASSERT_EQ(cells.size(), spec.schemes.size());
      for (std::size_t s = 0; s < cells.size(); ++s) {
        expect_cell_preserved(cells[s], spec.schemes[s],
                              sweep.experiments[0].cells[r][s]);
      }
    }
  }
}

TEST(JsonRoundTrip, MetricsSurviveTheSweepReport) {
  // With a metric suite the report gains config.metrics (the name
  // list) and a "metrics" object per cell whose values round-trip
  // exactly.
  const auto spec = roundtrip_spec();
  sim::MonteCarloConfig config;
  config.runs = 60;
  config.metrics = sim::make_metric_suite({"tails"});
  const auto sweep = harness::run_sweep({spec}, config);
  const Value doc = parse(harness::sweep_json(sweep, {false}));

  const auto& names = doc.find("config")->find("metrics")->as_array();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0].as_string(), "tails");

  const Value& cell = doc.find("experiments")->as_array()[0]
                          .find("rows")->as_array()[0]
                          .find("cells")->as_array()[0];
  const Value* metrics = cell.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const Value* tails = metrics->find("tails");
  ASSERT_NE(tails, nullptr);
  const auto& emitted = sweep.experiments[0].metrics[0][0];
  const double* p99 = emitted.find("tails", "finish_time_p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_EQ(tails->find("finish_time_p99")->as_number(), *p99);
  EXPECT_EQ(tails->find("finish_time_count")->as_number(),
            static_cast<double>(
                sweep.experiments[0].cells[0][0].finish_time_success.count()));
}

TEST(JsonRoundTrip, InfeasibleCellEnergyIsNull) {
  const auto spec = roundtrip_spec();
  sim::MonteCarloConfig config;
  config.runs = 40;
  const auto sweep = harness::run_sweep({spec}, config);
  // Row 1 ("U" = 1.2), scheme 0 (fixed Poisson baseline at f1): no run
  // can meet the deadline, so E over successes is NaN -> null.
  ASSERT_EQ(sweep.experiments[0].cells[1][0].completion.successes(), 0u);
  const Value doc = parse(harness::sweep_json(sweep, {false}));
  const Value& row = doc.find("experiments")->as_array()[0]
                         .find("rows")->as_array()[1];
  EXPECT_TRUE(row.find("cells")->as_array()[0].find("e")->is_null());
}


// --- the writer's golden bytes (obs/json_writer) -------------------------
//
// Every report, JSONL line, protocol line and canonical document is
// spelled by this writer, so these bytes pin all of them: escapes,
// shortest round-trip numbers, non-finite -> null, integer extremes,
// empty and nested containers, in both layouts.

std::string golden_document(obs::JsonStyle style) {
  std::string out;
  obs::JsonWriter json(out, style);
  json.begin_object();
  json.kv("escapes", "q\" b\\ n\n t\t r\r us\x1f del\x7f utf8 \xc3\xa9");
  json.kv("k\"ey", "v");
  json.key("doubles");
  json.begin_array();
  for (const double v : {0.1, 1e-7, 1e21, -0.0, 5e-324, 2.5, 100.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    json.value(v);
  }
  json.end_array();
  json.kv("int64_min", std::numeric_limits<std::int64_t>::min());
  json.kv("uint64_max", std::numeric_limits<std::uint64_t>::max());
  json.kv("size", std::size_t{42});
  json.kv("flag", true);
  json.key("empty_object");
  json.begin_object();
  json.end_object();
  json.key("empty_array");
  json.begin_array();
  json.end_array();
  json.key("nested");
  json.begin_object();
  json.key("a");
  json.begin_array();
  json.begin_object();
  json.key("b");
  json.begin_array();
  json.end_array();
  json.end_object();
  json.begin_array();
  json.value(false);
  json.end_array();
  json.end_array();
  json.key("raw");
  json.raw_value("{\"x\":1}");
  json.end_object();
  json.end_object();
  return out;
}

TEST(JsonWriterGolden, Pretty) {
  EXPECT_EQ(golden_document(obs::JsonStyle::kPretty),
            "{\n"
            "  \"escapes\": \"q\\\" b\\\\ n\\n t\\t r\\r us\\u001f del\x7f"
            " utf8 \xc3\xa9\",\n"
            "  \"k\\\"ey\": \"v\",\n"
            "  \"doubles\": [\n"
            "    0.1,\n"
            "    1e-07,\n"
            "    1e+21,\n"
            "    -0,\n"
            "    5e-324,\n"
            "    2.5,\n"
            "    100,\n"
            "    null,\n"
            "    null,\n"
            "    null\n"
            "  ],\n"
            "  \"int64_min\": -9223372036854775808,\n"
            "  \"uint64_max\": 18446744073709551615,\n"
            "  \"size\": 42,\n"
            "  \"flag\": true,\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"nested\": {\n"
            "    \"a\": [\n"
            "      {\n"
            "        \"b\": []\n"
            "      },\n"
            "      [\n"
            "        false\n"
            "      ]\n"
            "    ],\n"
            "    \"raw\": {\"x\":1}\n"
            "  }\n"
            "}");
}

TEST(JsonWriterGolden, Compact) {
  EXPECT_EQ(golden_document(obs::JsonStyle::kCompact),
            "{\"escapes\":\"q\\\" b\\\\ n\\n t\\t r\\r us\\u001f del\x7f"
            " utf8 \xc3\xa9\",\"k\\\"ey\":\"v\",\"doubles\":[0.1,1e-07,"
            "1e+21,-0,5e-324,2.5,100,null,null,null],"
            "\"int64_min\":-9223372036854775808,"
            "\"uint64_max\":18446744073709551615,\"size\":42,\"flag\":true,"
            "\"empty_object\":{},\"empty_array\":[],"
            "\"nested\":{\"a\":[{\"b\":[]},[false]],\"raw\":{\"x\":1}}}");
}

TEST(JsonWriterGolden, EmptyRootContainers) {
  for (const auto style : {obs::JsonStyle::kPretty, obs::JsonStyle::kCompact}) {
    std::string out;
    obs::JsonWriter json(out, style);
    json.begin_array();
    json.end_array();
    EXPECT_EQ(out, "[]");
  }
}

TEST(JsonWriterGolden, EmbeddedNulIsEscapedNotTruncated) {
  std::string out;
  obs::JsonWriter json(out, obs::JsonStyle::kCompact);
  json.begin_object();
  json.kv(std::string_view("k\0x", 3), std::string("t\0a", 3));
  json.end_object();
  EXPECT_EQ(out, "{\"k\\u0000x\":\"t\\u0000a\"}");
  EXPECT_EQ(parse(out).find(std::string("k\0x", 3))->as_string(),
            std::string("t\0a", 3));
}

TEST(JsonWriterGolden, StringLiteralIsAStringNotABool) {
  // A literal decays to const char*, whose conversion to bool would
  // otherwise beat the user-defined conversion to string_view.
  std::string out;
  obs::JsonWriter json(out, obs::JsonStyle::kCompact);
  json.begin_object();
  json.kv("state", "done");
  const char* pointer = "queued";
  json.kv("next", pointer);
  json.end_object();
  EXPECT_EQ(out, "{\"state\":\"done\",\"next\":\"queued\"}");
}

}  // namespace
}  // namespace adacheck::util::json
