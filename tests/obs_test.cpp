//===- tests/obs_test.cpp - Telemetry: metrics, spans, reports, gate ------===//

#include "fgbs/obs/Gate.h"
#include "fgbs/obs/Json.h"
#include "fgbs/obs/Metrics.h"
#include "fgbs/obs/RunReport.h"
#include "fgbs/obs/Trace.h"
#include "fgbs/support/Rng.h"
#include "fgbs/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

using namespace fgbs;

namespace {

// Telemetry switches are process globals; every test runs from a clean,
// enabled registry and leaves everything off again.
class Obs : public ::testing::Test {
protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset();
    obs::TraceLog::global().clear();
    obs::setEnabled(true);
    obs::setTracingEnabled(false);
  }
  void TearDown() override {
    obs::setEnabled(false);
    obs::setTracingEnabled(false);
    obs::MetricsRegistry::global().reset();
    obs::TraceLog::global().clear();
  }
};

} // namespace

TEST_F(Obs, CounterAccumulates) {
  obs::Counter &C = obs::MetricsRegistry::global().counter("t.counter");
  C.add(3);
  C.increment();
  EXPECT_EQ(C.total(), 4u);
  C.reset();
  EXPECT_EQ(C.total(), 0u);
}

TEST_F(Obs, GaugeLastValueWins) {
  obs::Gauge &G = obs::MetricsRegistry::global().gauge("t.gauge");
  G.set(2.5);
  G.set(7.0);
  EXPECT_EQ(G.get(), 7.0);
}

TEST_F(Obs, RegistryReturnsStableHandles) {
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  obs::Counter &A = R.counter("t.same");
  obs::Counter &B = R.counter("t.same");
  EXPECT_EQ(&A, &B);
  A.add(1);
  R.reset(); // zeroes, but the handle stays registered and valid
  B.add(2);
  EXPECT_EQ(R.snapshot().Counters.at("t.same"), 2u);
}

// The sharded counter must not lose updates when many threads hammer it
// through the real ThreadPool (more workers than shards would ever map
// 1:1, so slots collide and the fetch_add path is exercised).
TEST_F(Obs, CounterMergesConcurrentWriters) {
  obs::Counter &C = obs::MetricsRegistry::global().counter("t.stress");
  constexpr std::size_t Tasks = 64;
  constexpr std::uint64_t PerTask = 10000;
  ThreadPool Pool(8);
  Pool.parallelFor(0, Tasks, [&](std::size_t) {
    for (std::uint64_t I = 0; I < PerTask; ++I)
      C.increment();
  });
  EXPECT_EQ(C.total(), Tasks * PerTask);
}

TEST_F(Obs, HistogramMergesConcurrentWriters) {
  obs::Histogram &H = obs::MetricsRegistry::global().histogram("t.stress_h");
  constexpr std::size_t Tasks = 32;
  constexpr std::uint64_t PerTask = 1000;
  ThreadPool Pool(8);
  Pool.parallelFor(0, Tasks, [&](std::size_t Task) {
    for (std::uint64_t I = 0; I < PerTask; ++I)
      H.record(1000 * (Task + 1)); // 1us .. 32us, spread over buckets
  });
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, Tasks * PerTask);
  EXPECT_EQ(S.MinNs, 1000u);
  EXPECT_EQ(S.MaxNs, 1000u * Tasks);
  std::uint64_t BucketSum = 0;
  for (std::uint64_t B : S.Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, S.Count);
}

TEST(ObsHistogram, BucketBoundariesArePowerOfTwoMicroseconds) {
  // Bucket i covers (1000*2^(i-1), 1000*2^i]; bucket 0 starts at 0.
  EXPECT_EQ(obs::bucketUpperBoundNs(0), 1000u);
  EXPECT_EQ(obs::bucketUpperBoundNs(1), 2000u);
  EXPECT_EQ(obs::bucketUpperBoundNs(10), 1024000u);
  EXPECT_EQ(obs::bucketUpperBoundNs(obs::NumHistogramBuckets - 1), ~0ull);

  EXPECT_EQ(obs::Histogram::bucketFor(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketFor(1000), 0u); // bounds are inclusive
  EXPECT_EQ(obs::Histogram::bucketFor(1001), 1u);
  EXPECT_EQ(obs::Histogram::bucketFor(2000), 1u);
  EXPECT_EQ(obs::Histogram::bucketFor(2001), 2u);
  for (unsigned I = 0; I + 1 < obs::NumHistogramBuckets; ++I) {
    EXPECT_EQ(obs::Histogram::bucketFor(obs::bucketUpperBoundNs(I)), I);
    EXPECT_EQ(obs::Histogram::bucketFor(obs::bucketUpperBoundNs(I) + 1), I + 1);
  }
  EXPECT_EQ(obs::Histogram::bucketFor(~0ull), obs::NumHistogramBuckets - 1);
}

TEST_F(Obs, HistogramTracksMinMaxMean) {
  obs::Histogram &H = obs::MetricsRegistry::global().histogram("t.mm");
  H.record(500);
  H.record(1500);
  H.record(4000);
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.MinNs, 500u);
  EXPECT_EQ(S.MaxNs, 4000u);
  EXPECT_DOUBLE_EQ(S.meanNs(), 2000.0);
}

// When telemetry is off, the macros must not register or record
// anything — the disabled path is the tier-1 default.  (Registrations
// from other tests survive reset(), so assert on this test's names.)
TEST_F(Obs, DisabledModeIsANoOp) {
  obs::Counter &Pre = obs::MetricsRegistry::global().counter("t.pre_reg");
  obs::setEnabled(false);
  FGBS_COUNTER_ADD("t.never", 5);
  FGBS_GAUGE_SET("t.never_g", 1.0);
  FGBS_HISTOGRAM_RECORD_NS("t.never_h", 100);
  Pre.add(0); // direct handle use still records; macros must not reach it
  { FGBS_SCOPED_TIMER("t.never_t"); }
  { FGBS_TRACE_SPAN("t.never_s"); }
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(S.Counters.count("t.never"), 0u);
  EXPECT_EQ(S.Gauges.count("t.never_g"), 0u);
  EXPECT_EQ(S.Histograms.count("t.never_h"), 0u);
  EXPECT_EQ(S.Histograms.count("t.never_t"), 0u);
  EXPECT_EQ(S.Histograms.count("t.never_s"), 0u);
  EXPECT_TRUE(obs::TraceLog::global().events().empty());
}

TEST_F(Obs, MacrosRecordWhenEnabled) {
  FGBS_COUNTER_ADD("t.m_counter", 2);
  FGBS_COUNTER_ADD("t.m_counter", 3);
  FGBS_GAUGE_SET("t.m_gauge", 4.5);
  FGBS_HISTOGRAM_RECORD_NS("t.m_hist", 1234);
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(S.Counters.at("t.m_counter"), 5u);
  EXPECT_EQ(S.Gauges.at("t.m_gauge"), 4.5);
  EXPECT_EQ(S.Histograms.at("t.m_hist").Count, 1u);
}

TEST_F(Obs, SpansNestPerThread) {
  obs::setTracingEnabled(true);
  {
    obs::TraceSpan Outer("t.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    {
      obs::TraceSpan Inner("t.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::vector<obs::TraceEvent> Events = obs::TraceLog::global().events();
  ASSERT_EQ(Events.size(), 2u);
  // Ordered by start time: outer first, inner nested one level deeper
  // and contained within the outer interval.
  EXPECT_EQ(Events[0].Name, "t.outer");
  EXPECT_EQ(Events[0].Depth, 0u);
  EXPECT_EQ(Events[1].Name, "t.inner");
  EXPECT_EQ(Events[1].Depth, 1u);
  EXPECT_GE(Events[1].StartNs, Events[0].StartNs);
  EXPECT_LE(Events[1].StartNs + Events[1].DurationNs,
            Events[0].StartNs + Events[0].DurationNs);
  // Sibling after the nest returns to depth 0.
  { obs::TraceSpan After("t.after"); }
  EXPECT_EQ(obs::TraceLog::global().events().back().Depth, 0u);
}

TEST_F(Obs, SpanFeedsHistogramOfSameName) {
  { obs::TraceSpan Span("t.span_hist"); }
  obs::MetricsSnapshot S = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(S.Histograms.at("t.span_hist").Count, 1u);
}

TEST_F(Obs, ChromeTraceExportIsValidJson) {
  obs::setTracingEnabled(true);
  {
    obs::TraceSpan Outer("t.chrome");
    obs::TraceSpan Inner("t.chrome_inner");
  }
  std::ostringstream OS;
  obs::writeChromeTrace(OS, obs::TraceLog::global().events());
  std::optional<obs::JsonValue> Doc = obs::parseJson(OS.str());
  ASSERT_TRUE(Doc.has_value());
  const obs::JsonValue *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->elements().size(), 2u);
  const obs::JsonValue &First = Events->elements()[0];
  EXPECT_EQ(First.find("ph")->string(), "X");
  EXPECT_EQ(First.find("name")->string(), "t.chrome");
}

TEST(ObsJson, ParsesScalarsArraysObjects) {
  std::optional<obs::JsonValue> V =
      obs::parseJson(R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null},)"
                     R"( "s": "x\nyA"})");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->find("a")->elements()[2].number(), -300.0);
  EXPECT_TRUE(V->find("b")->find("c")->boolean());
  EXPECT_TRUE(V->find("b")->find("d")->isNull());
  EXPECT_EQ(V->find("s")->string(), "x\nyA");
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_FALSE(obs::parseJson("").has_value());
  EXPECT_FALSE(obs::parseJson("{").has_value());
  EXPECT_FALSE(obs::parseJson("{\"a\": 1,}").has_value());
  EXPECT_FALSE(obs::parseJson("[1 2]").has_value());
  EXPECT_FALSE(obs::parseJson("\"unterminated").has_value());
  EXPECT_FALSE(obs::parseJson("{} trailing").has_value());
}

TEST(ObsJson, WriteParseRoundTripPreservesNumbers) {
  obs::JsonValue Doc = obs::JsonValue::object();
  Doc.set("int", obs::JsonValue(423024576.0));
  Doc.set("frac", obs::JsonValue(1062017.4432989692));
  Doc.set("tiny", obs::JsonValue(0.001));
  for (unsigned Indent : {0u, 2u}) {
    std::optional<obs::JsonValue> Back =
        obs::parseJson(obs::writeJson(Doc, Indent));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(Back->find("int")->number(), 423024576.0);
    EXPECT_EQ(Back->find("frac")->number(), 1062017.4432989692);
    EXPECT_EQ(Back->find("tiny")->number(), 0.001);
  }
}

namespace {

// One document with every number class the writer distinguishes,
// locked to the bytes the snprintf-based writer produced: integers
// (the %.0f path, -0 included), 1e15 and its neighbours (where the
// integer path ends), subnormals, fractions whose shortest form is
// short or long, the largest double, and non-finite values (null).
obs::JsonValue numberClassesDocument() {
  using L = std::numeric_limits<double>;
  auto Array = [](std::initializer_list<double> Values) {
    obs::JsonValue A = obs::JsonValue::array();
    for (double V : Values)
      A.push(obs::JsonValue(V));
    return A;
  };
  obs::JsonValue Doc = obs::JsonValue::object();
  Doc.set("integers", Array({0.0, 1.0, -1.0, 42.0, -123456789.0,
                             562949953421312.0, 999999999999999.0,
                             -999999999999999.0}));
  Doc.set("zero", obs::JsonValue(0.0));
  Doc.set("negative_zero", obs::JsonValue(-0.0));
  Doc.set("near_1e15", Array({1e15 - 1, 1e15, 1e15 + 1, -1e15, -(1e15 + 1),
                              9007199254740993.0, 1e21}));
  Doc.set("subnormal", Array({L::denorm_min(), -L::denorm_min(),
                              L::min() / 2, L::min(),
                              2.2250738585072009e-308}));
  Doc.set("fractions",
          Array({0.1, -0.1, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1.5, 123.456,
                 1e-7, 1062017.4432989692, 5.551115123125783e-17, 100.25}));
  Doc.set("large", Array({L::max(), -L::max(), std::ldexp(1.0, 1023),
                          std::nextafter(std::ldexp(1.0, 60), 0.0), 1e300}));
  Doc.set("non_finite",
          Array({L::quiet_NaN(), L::infinity(), -L::infinity()}));
  return Doc;
}

} // namespace

TEST(ObsJson, WriterGoldenBytes) {
  const obs::JsonValue Doc = numberClassesDocument();
  EXPECT_EQ(
      obs::writeJson(Doc),
      R"({"fractions":[0.1,-0.1,0.3,0.3333333333333333,0.6666666666666666,)"
      R"(0.5,1.5,123.456,1e-07,1062017.4432989692,5.551115123125783e-17,)"
      R"(100.25],"integers":[0,1,-1,42,-123456789,562949953421312,)"
      R"(999999999999999,-999999999999999],"large":[1.7976931348623157e+308,)"
      R"(-1.7976931348623157e+308,8.98846567431158e+307,)"
      R"(1.1529215046068468e+18,1e+300],"near_1e15":[999999999999999,1e+15,)"
      R"(1000000000000001,-1e+15,-1000000000000001,9007199254740992,1e+21],)"
      R"("negative_zero":-0,"non_finite":[null,null,null],"subnormal":)"
      R"([5e-324,-5e-324,1.1125369292536007e-308,2.2250738585072014e-308,)"
      R"(2.225073858507201e-308],"zero":0})");
  EXPECT_EQ(obs::writeJson(Doc, 2), R"({
  "fractions": [
    0.1,
    -0.1,
    0.3,
    0.3333333333333333,
    0.6666666666666666,
    0.5,
    1.5,
    123.456,
    1e-07,
    1062017.4432989692,
    5.551115123125783e-17,
    100.25
  ],
  "integers": [
    0,
    1,
    -1,
    42,
    -123456789,
    562949953421312,
    999999999999999,
    -999999999999999
  ],
  "large": [
    1.7976931348623157e+308,
    -1.7976931348623157e+308,
    8.98846567431158e+307,
    1.1529215046068468e+18,
    1e+300
  ],
  "near_1e15": [
    999999999999999,
    1e+15,
    1000000000000001,
    -1e+15,
    -1000000000000001,
    9007199254740992,
    1e+21
  ],
  "negative_zero": -0,
  "non_finite": [
    null,
    null,
    null
  ],
  "subnormal": [
    5e-324,
    -5e-324,
    1.1125369292536007e-308,
    2.2250738585072014e-308,
    2.225073858507201e-308
  ],
  "zero": 0
})");
}

namespace {

/// The snprintf loop writeNumber ran before it used std::to_chars, kept
/// as the oracle for every byte the writer prints.
std::string referenceNumber(double N) {
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 1e15) {
    char Buffer[32];
    std::snprintf(Buffer, sizeof(Buffer), "%.0f", N);
    return Buffer;
  }
  if (!std::isfinite(N))
    return "null";
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", N);
  for (int Precision = 1; Precision < 17; ++Precision) {
    char Short[40];
    std::snprintf(Short, sizeof(Short), "%.*g", Precision, N);
    double Back = 0.0;
    std::from_chars(Short, Short + std::strlen(Short), Back);
    if (Back == N)
      return Short;
  }
  return Buffer;
}

} // namespace

TEST(ObsJson, NumberWriterMatchesPrintfOracle) {
  Rng R(0x70C4A25);
  std::vector<double> Values;
  // Random bit patterns: every exponent, NaN and infinity included.
  for (int I = 0; I < 30000; ++I)
    Values.push_back(std::bit_cast<double>(R.nextU64()));
  // Short decimals scaled over 1e-20 to 1e20, where a short %.Pg form
  // round-trips and the search ends early.
  for (int I = 0; I < 30000; ++I) {
    const double Decimal = static_cast<double>(R.below(1000000)) /
                           std::pow(10.0, static_cast<double>(R.below(7)));
    const double Scaled =
        Decimal * std::pow(10.0, static_cast<double>(R.below(41)) - 20.0);
    Values.push_back(I % 2 ? Scaled : -Scaled);
  }
  // Powers of two and their neighbours: asymmetric rounding intervals.
  for (int Exponent = -1074; Exponent <= 1023; ++Exponent) {
    const double Power = std::ldexp(1.0, Exponent);
    Values.push_back(Power);
    Values.push_back(std::nextafter(Power, 0.0));
    Values.push_back(std::nextafter(Power, HUGE_VAL));
  }
  // Subnormals.
  for (int I = 0; I < 10000; ++I)
    Values.push_back(std::bit_cast<double>(R.below(std::uint64_t(1) << 52)));
  // Integers and halves around +-1e15, where the integer path ends.
  for (int Delta = -5000; Delta <= 5000; ++Delta) {
    Values.push_back(1e15 + Delta);
    Values.push_back(-1e15 + Delta);
    Values.push_back(1e15 + Delta + 0.5);
  }
  ASSERT_GE(Values.size(), 100000u);
  for (double V : Values)
    ASSERT_EQ(obs::writeJson(obs::JsonValue(V)), referenceNumber(V))
        << std::hexfloat << V;
}

TEST(ObsJson, LastDuplicateKeyWins) {
  std::optional<obs::JsonValue> V =
      obs::parseJson(R"({"a": {"x": 1}, "b": 2, "a": [3]})");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->members().size(), 2u);
  const obs::JsonValue *A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->kind(), obs::JsonValue::Kind::Array);
  ASSERT_EQ(A->elements().size(), 1u);
  EXPECT_EQ(A->elements()[0].number(), 3.0);
  EXPECT_TRUE(A->members().empty());

  V = obs::parseJson(R"({"a": [1, 2], "a": {"y": "z"}})");
  ASSERT_TRUE(V.has_value());
  A = V->find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isObject());
  EXPECT_TRUE(A->elements().empty());
  EXPECT_EQ(A->find("y")->string(), "z");
}

TEST(ObsJson, WhitespaceIsTheCLocaleSet) {
  // JSON's four whitespace characters plus \v and \f, as std::isspace
  // reads them in the "C" locale.
  std::optional<obs::JsonValue> V =
      obs::parseJson("\v\f[\v1,\f2 ,\r\n\t3]\f\v");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->elements().size(), 3u);
  EXPECT_FALSE(obs::parseJson("\x1c[1]").has_value());
  EXPECT_FALSE(obs::parseJson("[1]\x1f").has_value());
  EXPECT_FALSE(obs::parseJson("[\x01" "1]").has_value());
}

TEST(ObsJson, LeadingPlusIsRejected) {
  EXPECT_FALSE(obs::parseJson("+1").has_value());
  EXPECT_FALSE(obs::parseJson("[+1]").has_value());
  EXPECT_FALSE(obs::parseJson(R"({"a": +1})").has_value());
  EXPECT_EQ(obs::parseJson("-1")->number(), -1.0);
  EXPECT_EQ(obs::parseJson("1e+2")->number(), 100.0);
}

namespace {

/// The number rule the parser used to apply by scanning first: the
/// longest run of digits, '.', 'e', 'E', '-' and '+' (after an optional
/// sign), with a digit in it, that std::from_chars consumes whole.  The
/// oracle accepts only when that run is all of \p Text.
std::optional<double> runRuleNumber(const std::string &Text) {
  const char *Start = Text.data();
  const char *End = Start + Text.size();
  const char *Cursor = Start;
  if (Cursor != End && (*Cursor == '-' || *Cursor == '+'))
    ++Cursor;
  bool SawDigit = false;
  while (Cursor != End &&
         ((*Cursor >= '0' && *Cursor <= '9') || *Cursor == '.' ||
          *Cursor == 'e' || *Cursor == 'E' || *Cursor == '-' ||
          *Cursor == '+')) {
    SawDigit |= *Cursor >= '0' && *Cursor <= '9';
    ++Cursor;
  }
  double Parsed = 0.0;
  if (!SawDigit || Cursor != End)
    return std::nullopt;
  auto [Ptr, Ec] = std::from_chars(Start, Cursor, Parsed);
  if (Ec != std::errc() || Ptr != Cursor)
    return std::nullopt;
  return Parsed;
}

} // namespace

// The parser lets std::from_chars find the end of a number; it must
// accept exactly what the scan-then-convert rule accepted, with the same
// bits, as a document, an array element and an object member.
TEST(ObsJson, NumbersMatchTheRunRuleOracle) {
  std::vector<std::string> Texts = {
      "0", "-0", "1", "-1", "1.5", ".5", "-.5", "5.", "1e5", "1E+5", "1e-5",
      "1e", "1e+", "1.e3", "1..2", "1e5e5", "--1", "-", ".", "+", "+1",
      "inf", "-inf", "infinity", "-Infinity", "INF", "nan", "-nan",
      "nan(12)", "0x10", "0x1p3", "00", "007", "1e400", "-1e400", "1e-400",
      "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
      "123456789012345678901234567890", "1-2", "1+2", "e5", "-e5", "1.5e",
      "9.", "1.2.3", "0.1e-2", "-0.0", "1e0001", "1ee5", "1e+-5", "-."};
  Rng R(0x4E0B);
  const std::string Head = "0123456789.-+eEi";
  const std::string Tail = "0123456789.eE-+xinfa";
  for (int I = 0; I < 20000; ++I) {
    std::string T(1, Head[R.below(Head.size())]);
    const std::size_t Length = R.below(10);
    for (std::size_t J = 0; J < Length; ++J)
      T.push_back(Tail[R.below(Tail.size())]);
    Texts.push_back(T);
  }
  std::size_t Accepted = 0;
  for (const std::string &T : Texts) {
    const std::optional<double> Want = runRuleNumber(T);
    Accepted += Want.has_value();
    const std::optional<obs::JsonValue> Document = obs::parseJson(T);
    const std::optional<obs::JsonValue> InArray = obs::parseJson("[" + T + "]");
    const std::optional<obs::JsonValue> InObject =
        obs::parseJson("{\"a\":" + T + "}");
    ASSERT_EQ(Document.has_value(), Want.has_value()) << T;
    ASSERT_EQ(InArray.has_value(), Want.has_value()) << T;
    ASSERT_EQ(InObject.has_value(), Want.has_value()) << T;
    if (!Want)
      continue;
    const std::uint64_t Bits = std::bit_cast<std::uint64_t>(*Want);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(Document->number()), Bits) << T;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(InArray->elements()[0].number()),
              Bits)
        << T;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(InObject->find("a")->number()),
              Bits)
        << T;
  }
  EXPECT_GT(Accepted, 2000u) << "the random texts must exercise acceptance";
}

TEST(ObsJson, ThousandNumberArrayRoundTrips) {
  Rng R(0xA22A1);
  obs::JsonValue Array = obs::JsonValue::array();
  for (int I = 0; I < 1000; ++I)
    Array.push(obs::JsonValue(I % 3 == 0 ? static_cast<double>(R.below(1 << 20))
                                         : (R.uniform() - 0.5) * 1e6));
  for (unsigned Indent : {0u, 2u}) {
    const std::string Text = obs::writeJson(Array, Indent);
    std::optional<obs::JsonValue> Back = obs::parseJson(Text);
    ASSERT_TRUE(Back.has_value());
    ASSERT_EQ(Back->elements().size(), 1000u);
    for (std::size_t I = 0; I < 1000; ++I)
      EXPECT_EQ(Back->elements()[I].number(), Array.elements()[I].number())
          << "element " << I;
    EXPECT_EQ(obs::writeJson(*Back, Indent), Text);
  }
}

TEST(ObsJson, CopiesAreDeepAndIndependent) {
  obs::JsonValue Source = obs::JsonValue::object();
  obs::JsonValue List = obs::JsonValue::array();
  List.push(obs::JsonValue(1.0));
  List.push(obs::JsonValue("two"));
  Source.set("list", List);
  Source.set("name", obs::JsonValue("source"));
  const std::string Before = obs::writeJson(Source);
  ASSERT_EQ(Before, R"({"list":[1,"two"],"name":"source"})");

  obs::JsonValue Copy(Source);
  Copy.members()["list"].push(obs::JsonValue(3.0));
  Copy.members()["list"].elements()[1] = obs::JsonValue(false);
  Copy.set("name", obs::JsonValue("copy"));
  EXPECT_EQ(obs::writeJson(Source), Before);
  EXPECT_EQ(obs::writeJson(Copy), R"({"list":[1,false,3],"name":"copy"})");

  // Copy assignment over a value of another kind, then the source dies.
  obs::JsonValue Assigned(2.5);
  {
    obs::JsonValue Temporary = Source;
    Assigned = Temporary;
    Temporary.members().clear();
  }
  Assigned.members()["list"].elements().clear();
  EXPECT_EQ(obs::writeJson(Assigned), R"({"list":[],"name":"source"})");
  EXPECT_EQ(obs::writeJson(Source), Before);
  EXPECT_EQ(obs::writeJson(List), R"([1,"two"])");

  obs::JsonValue Text("text");
  obs::JsonValue TextCopy = Text;
  TextCopy = obs::JsonValue("other");
  EXPECT_EQ(Text.string(), "text");
}

TEST(ObsJson, SelfAssignmentIsSafe) {
  std::optional<obs::JsonValue> Doc =
      obs::parseJson(R"({"a":[1,{"b":"c"}],"d":"e","f":null})");
  ASSERT_TRUE(Doc.has_value());
  const std::string Text = obs::writeJson(*Doc);
  obs::JsonValue &Alias = *Doc;
  *Doc = Alias;
  EXPECT_EQ(obs::writeJson(*Doc), Text);
  obs::JsonValue &Member = Doc->members()["a"];
  obs::JsonValue &MemberAlias = Member;
  Member = MemberAlias;
  EXPECT_EQ(obs::writeJson(*Doc), Text);
  obs::JsonValue S("s");
  obs::JsonValue &SAlias = S;
  S = SAlias;
  EXPECT_EQ(S.string(), "s");
}

TEST(ObsJson, MovedFromValueIsNull) {
  obs::JsonValue Array = obs::JsonValue::array();
  Array.push(obs::JsonValue("x"));
  obs::JsonValue Object = obs::JsonValue::object();
  Object.set("k", Array);
  std::vector<obs::JsonValue> Values = {obs::JsonValue(true),
                                        obs::JsonValue(-2.5),
                                        obs::JsonValue("text"), Array, Object};
  for (obs::JsonValue &Source : Values) {
    const std::string Text = obs::writeJson(Source);
    SCOPED_TRACE(Text);
    obs::JsonValue Constructed(std::move(Source));
    EXPECT_TRUE(Source.isNull());
    EXPECT_EQ(obs::writeJson(Source), "null");
    EXPECT_EQ(obs::writeJson(Constructed), Text);

    obs::JsonValue Assigned("to be replaced");
    Assigned = std::move(Constructed);
    EXPECT_TRUE(Constructed.isNull());
    EXPECT_EQ(obs::writeJson(Assigned), Text);

    // A moved-from value is an ordinary null that can be reassigned,
    // and a self-move leaves a value as it was.
    Source = obs::JsonValue(7.0);
    EXPECT_EQ(Source.number(), 7.0);
    obs::JsonValue &Alias = Assigned;
    Assigned = std::move(Alias);
    EXPECT_EQ(obs::writeJson(Assigned), Text);
  }
}

// set() and push() on a value of another kind used to write into
// members writeJson never printed; now they assert in debug builds and
// change nothing in release builds, like the non-const accessors.
TEST(ObsJson, MutatorsOfAnotherKindAssertOrChangeNothing) {
  obs::JsonValue Array = obs::JsonValue::array();
  Array.push(obs::JsonValue(1.0));
  obs::JsonValue Object = obs::JsonValue::object();
  Object.set("k", obs::JsonValue(2.0));
  std::vector<obs::JsonValue> Values = {obs::JsonValue(), obs::JsonValue(true),
                                        obs::JsonValue(3.0),
                                        obs::JsonValue("s"), Array, Object};
  using Kind = obs::JsonValue::Kind;
  for (obs::JsonValue &V : Values) {
    const std::string Text = obs::writeJson(V);
    SCOPED_TRACE(Text);
    if (V.kind() != Kind::Object) {
      EXPECT_DEBUG_DEATH(V.set("a", obs::JsonValue(4.0)),
                         "set\\(\\) on a non-object");
      EXPECT_DEBUG_DEATH(V.members()["a"] = obs::JsonValue(4.0),
                         "members\\(\\) of a non-object");
      EXPECT_TRUE(std::as_const(V).members().empty());
      EXPECT_EQ(V.find("a"), nullptr);
    }
    if (V.kind() != Kind::Array) {
      EXPECT_DEBUG_DEATH(V.push(obs::JsonValue(4.0)),
                         "push\\(\\) on a non-array");
      EXPECT_DEBUG_DEATH(V.elements().push_back(obs::JsonValue(4.0)),
                         "elements\\(\\) of a non-array");
      EXPECT_TRUE(std::as_const(V).elements().empty());
    }
    EXPECT_EQ(obs::writeJson(V), Text);
  }
}

TEST(ObsJson, WrongKindConstAccessorsReturnDefaults) {
  obs::JsonValue Array = obs::JsonValue::array();
  Array.push(obs::JsonValue(1.0));
  obs::JsonValue Object = obs::JsonValue::object();
  Object.set("k", obs::JsonValue(2.0));
  const obs::JsonValue Values[] = {obs::JsonValue(), obs::JsonValue(true),
                                   obs::JsonValue(2.5), obs::JsonValue("s"),
                                   Array, Object};
  using Kind = obs::JsonValue::Kind;
  for (const obs::JsonValue &V : Values) {
    SCOPED_TRACE(obs::writeJson(V));
    EXPECT_EQ(V.number(), V.kind() == Kind::Number ? 2.5 : 0.0);
    EXPECT_EQ(V.boolean(), V.kind() == Kind::Bool);
    EXPECT_EQ(V.string(), V.kind() == Kind::String ? "s" : "");
    EXPECT_EQ(V.elements().size(), V.kind() == Kind::Array ? 1u : 0u);
    EXPECT_EQ(V.members().size(), V.kind() == Kind::Object ? 1u : 0u);
    EXPECT_EQ(V.find("k") != nullptr, V.kind() == Kind::Object);
    EXPECT_EQ(V.isNull(), V.kind() == Kind::Null);
    EXPECT_EQ(V.isNumber(), V.kind() == Kind::Number);
    EXPECT_EQ(V.isObject(), V.kind() == Kind::Object);
  }
  EXPECT_FALSE(obs::JsonValue(false).boolean());
  EXPECT_TRUE(std::signbit(obs::JsonValue(-0.0).number()));
}

TEST(ObsJson, DuplicateKeyOfAnotherKindKeepsTheLaterValue) {
  std::optional<obs::JsonValue> V = obs::parseJson(R"({"a":[1,2],"a":3})");
  ASSERT_TRUE(V.has_value());
  const obs::JsonValue *A = V->find("a");
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(A->isNumber());
  EXPECT_EQ(A->number(), 3.0);
  EXPECT_TRUE(A->elements().empty());
  EXPECT_EQ(obs::writeJson(*V), R"({"a":3})");

  for (const char *Text :
       {R"({"a":"x","a":{"b":[true]}})", R"({"a":{"b":1},"a":null})",
        R"({"a":3,"a":"x"})", R"({"a":[[1],{"c":2}],"a":false})"}) {
    V = obs::parseJson(Text);
    ASSERT_TRUE(V.has_value()) << Text;
    std::string Later(Text);
    Later = "{" + Later.substr(Later.rfind("\"a\":"));
    EXPECT_EQ(obs::writeJson(*V), Later) << Text;
  }
}

TEST_F(Obs, RunReportRoundTripsThroughSchema) {
  FGBS_COUNTER_ADD("t.report_counter", 42);
  FGBS_GAUGE_SET("t.report_gauge", 3.5);
  FGBS_HISTOGRAM_RECORD_NS("t.report_hist", 1500);

  obs::RunInfo Info;
  Info.Name = "obs_test";
  Info.Threads = 4;
  std::map<std::string, double> Values{{"elbow_k", 18.0}};
  std::map<std::string, double> Benchmarks{{"BM_Fake/1", 123456.0}};
  obs::JsonValue Report =
      obs::buildRunReport(Info, obs::MetricsRegistry::global().snapshot(),
                          Values, Benchmarks);

  std::optional<obs::JsonValue> Back =
      obs::parseJson(obs::writeJson(Report, 2));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->find("schema")->string(), "fgbs.run.v1");
  EXPECT_EQ(Back->find("run")->find("name")->string(), "obs_test");
  EXPECT_EQ(Back->find("run")->find("threads")->number(), 4.0);
  EXPECT_EQ(Back->find("values")->find("elbow_k")->number(), 18.0);

  const obs::JsonValue *Metrics = Back->find("metrics");
  ASSERT_NE(Metrics, nullptr);
  EXPECT_EQ(Metrics->find("counters")->find("t.report_counter")->number(),
            42.0);
  EXPECT_EQ(Metrics->find("gauges")->find("t.report_gauge")->number(), 3.5);
  const obs::JsonValue *Hist =
      Metrics->find("histograms")->find("t.report_hist");
  ASSERT_NE(Hist, nullptr);
  EXPECT_EQ(Hist->find("count")->number(), 1.0);
  EXPECT_EQ(Hist->find("buckets")->elements().size(),
            obs::NumHistogramBuckets);
  // The overflow bucket has no upper bound.
  EXPECT_TRUE(
      Hist->find("buckets")->elements().back().find("le_ns")->isNull());

  std::map<std::string, double> BenchesBack = obs::benchmarksFromJson(*Back);
  EXPECT_EQ(BenchesBack.at("BM_Fake/1"), 123456.0);
}

TEST(ObsReport, ReadsFlatBaselineBenchmarks) {
  // The checked-in baseline predates fgbs.run.v1: a bare "benchmarks"
  // object of name -> ns numbers (or {"time_ns": ...} objects).
  std::optional<obs::JsonValue> Doc = obs::parseJson(
      R"({"benchmarks": {"BM_A": 100, "BM_B": {"time_ns": 200}}})");
  ASSERT_TRUE(Doc.has_value());
  std::map<std::string, double> B = obs::benchmarksFromJson(*Doc);
  EXPECT_EQ(B.at("BM_A"), 100.0);
  EXPECT_EQ(B.at("BM_B"), 200.0);
  EXPECT_TRUE(obs::benchmarksFromJson(obs::JsonValue::object()).empty());
}

namespace {

obs::JsonValue benchesDoc(std::map<std::string, double> Benches) {
  obs::JsonValue Inner = obs::JsonValue::object();
  for (const auto &[Name, Ns] : Benches)
    Inner.set(Name, obs::JsonValue(Ns));
  obs::JsonValue Doc = obs::JsonValue::object();
  Doc.set("benchmarks", std::move(Inner));
  return Doc;
}

} // namespace

TEST(ObsGate, ClassifiesRatiosAgainstThresholds) {
  obs::JsonValue Baseline = benchesDoc(
      {{"ok", 1000}, {"warn", 1000}, {"fail", 1000}, {"gone", 1000}});
  obs::JsonValue Results = benchesDoc(
      {{"ok", 1400}, {"warn", 2000}, {"fail", 3500}, {"fresh", 10}});
  obs::GateReport R = obs::compareBenchmarks(Baseline, Results, 1.5, 3.0);

  EXPECT_EQ(R.Compared, 3u);
  EXPECT_EQ(R.Warnings, 2u); // "warn" + missing "gone"
  EXPECT_EQ(R.Failures, 1u);
  EXPECT_FALSE(R.passed());

  std::map<std::string, obs::GateStatus> ByName;
  for (const obs::GateEntry &E : R.Entries)
    ByName[E.Name] = E.Status;
  EXPECT_EQ(ByName.at("ok"), obs::GateStatus::Ok);
  EXPECT_EQ(ByName.at("warn"), obs::GateStatus::Warn);
  EXPECT_EQ(ByName.at("fail"), obs::GateStatus::Fail);
  EXPECT_EQ(ByName.at("gone"), obs::GateStatus::MissingResult);
  EXPECT_EQ(ByName.at("fresh"), obs::GateStatus::NewBenchmark);
}

TEST(ObsGate, PassesAtBoundaryAndFailsWhenNothingCompared) {
  obs::JsonValue Baseline = benchesDoc({{"bm", 1000}});
  // Exactly the warn threshold still counts as Ok territory's edge: the
  // policy is strictly-greater-than.
  obs::GateReport AtWarn = obs::compareBenchmarks(
      Baseline, benchesDoc({{"bm", 1500}}), 1.5, 3.0);
  EXPECT_EQ(AtWarn.Warnings, 0u);
  EXPECT_TRUE(AtWarn.passed());

  // Faster than baseline is plain Ok.
  obs::GateReport Faster = obs::compareBenchmarks(
      Baseline, benchesDoc({{"bm", 10}}), 1.5, 3.0);
  EXPECT_TRUE(Faster.passed());

  // No overlap at all must not silently pass.
  obs::GateReport Empty = obs::compareBenchmarks(
      Baseline, benchesDoc({{"other", 10}}), 1.5, 3.0);
  EXPECT_EQ(Empty.Compared, 0u);
  EXPECT_FALSE(Empty.passed());
}

TEST(ObsGate, ReportPrintsVerdictLine) {
  obs::JsonValue Baseline = benchesDoc({{"bm", 1000}});
  obs::GateReport R =
      obs::compareBenchmarks(Baseline, benchesDoc({{"bm", 1100}}), 1.5, 3.0);
  std::ostringstream OS;
  obs::printGateReport(OS, R);
  EXPECT_NE(OS.str().find("perf gate: PASS"), std::string::npos);
  EXPECT_NE(OS.str().find("1.10"), std::string::npos);
}

TEST_F(Obs, SummaryListsEveryMetricKind) {
  FGBS_COUNTER_ADD("t.sum_counter", 7);
  FGBS_GAUGE_SET("t.sum_gauge", 2.0);
  FGBS_HISTOGRAM_RECORD_NS("t.sum_hist", 1000000);
  std::ostringstream OS;
  obs::printSummary(OS, obs::MetricsRegistry::global().snapshot());
  EXPECT_NE(OS.str().find("t.sum_counter"), std::string::npos);
  EXPECT_NE(OS.str().find("t.sum_gauge"), std::string::npos);
  EXPECT_NE(OS.str().find("t.sum_hist"), std::string::npos);
}
