// Tests of the benchmark's own code: the percentile and sample-count rules,
// the pacer's due-time accounting, the response checker (which must fail on
// a perturbed weight, swapped answers and a dropped answer), the entity
// matcher and the JSON reader.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker.h"
#include "json.h"
#include "stats.h"
#include "world.h"

namespace perfbench {
namespace {

TEST(StatsTest, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(Median({}), std::invalid_argument);
}

TEST(StatsTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_TRUE(TailSupported(1000, 99.0));
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);  // Rank 990 of 999.
  EXPECT_FALSE(TailSupported(999, 99.0));
  EXPECT_FALSE(TailSupported(39, 50.0) && TailSupported(39, 99.0));
  EXPECT_TRUE(TailSupported(20, 50.0));
  EXPECT_EQ(SamplesBeyond(0, 99.0), 0u);
}

TEST(PacerTest, PoissonScheduleIsSeededAndHasTheMeanRate) {
  std::vector<Clock::duration> a = PoissonOffsets(1000.0, 20000, 7);
  EXPECT_EQ(a, PoissonOffsets(1000.0, 20000, 7));
  EXPECT_NE(a, PoissonOffsets(1000.0, 20000, 8));
  EXPECT_EQ(a[0], Clock::duration::zero());
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GE(a[i], a[i - 1]);
  double seconds = std::chrono::duration<double>(a.back()).count();
  EXPECT_NEAR(seconds, 20.0, 0.5);  // 20,000 arrivals at 1,000/s.
}

TEST(PacerTest, LatencyCountsFromDueTimeAndLatenessIsKept) {
  Clock::time_point start{};
  using std::chrono::milliseconds;
  Pacer pacer(start, {milliseconds(0), milliseconds(1), milliseconds(2)});
  EXPECT_EQ(pacer.Due(2), start + milliseconds(2));
  // Request 0 goes out on time, request 1 early, request 2 after a 3 ms
  // stall of the sender.
  EXPECT_EQ(pacer.RecordSend(0, start), 0.0);
  EXPECT_EQ(pacer.RecordSend(1, start + std::chrono::microseconds(500)), 0.0);
  EXPECT_DOUBLE_EQ(pacer.RecordSend(2, start + milliseconds(5)), 3.0);
  // Answered 1 ms after it was finally sent: 4 ms late from its due time.
  EXPECT_DOUBLE_EQ(Ms(pacer.Due(2), start + milliseconds(6)), 4.0);
  EXPECT_EQ(pacer.lateness_ms().size(), 3u);
}

/// A valid two-component answer whose point is the first centre (the second
/// is far away and light, so the first centre is the mode).
std::string Answer(const std::string& id, const std::string& attention,
                   double w1 = 0.7, double point_lat = 40.70) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"id\":\"%s\",\"point\":{\"lat\":%.17g,\"lon\":-74},\"components\":["
      "{\"weight\":%.17g,\"center\":{\"lat\":40.7,\"lon\":-74},\"sigma_x_km\":1,"
      "\"sigma_y_km\":1.5,\"rho\":0.2,\"ellipse95\":{\"center\":{\"lat\":40.7,\"lon\":-74},"
      "\"semi_major_km\":3,\"semi_minor_km\":2,\"angle_rad\":0.1}},"
      "{\"weight\":0.3,\"center\":{\"lat\":40.8,\"lon\":-73.9},\"sigma_x_km\":2,"
      "\"sigma_y_km\":2,\"rho\":0,\"ellipse95\":{\"center\":{\"lat\":40.8,\"lon\":-73.9},"
      "\"semi_major_km\":5,\"semi_minor_km\":5,\"angle_rad\":0}}],"
      "\"attention\":[%s],\"used_fallback\":%s,\"from_cache\":false,"
      "\"degraded\":false,\"degrade_reason\":\"none\"}",
      id.c_str(), point_lat, w1, attention.c_str(), attention.empty() ? "true" : "false");
  return buf;
}

class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    requests_ = {{"pizza at Majestic Theatre", 40.7, -74.0, {"majestic_theatre"}},
                 {"hello world", 40.7, -74.0, {}},
                 {"#phantomopera at the Majestic Theatre", 40.7, -74.0,
                  {"@phantomopera", "majestic_theatre"}}};
    lines_ = {Answer("r0", "{\"entity\":\"majestic_theatre\",\"weight\":1}"),
              Answer("r1", ""),
              Answer("r2",
                     "{\"entity\":\"majestic_theatre\",\"weight\":0.25},"
                     "{\"entity\":\"@phantomopera\",\"weight\":0.75}")};
  }
  size_t Problems(const std::vector<Request>& requests, const std::vector<std::string>& lines) {
    std::vector<std::string> errors;
    return CheckRecordedStream(requests, lines, 40.75, &errors);
  }
  std::vector<Request> requests_;
  std::vector<std::string> lines_;
};

TEST_F(CheckerTest, CleanStreamPasses) { EXPECT_EQ(Problems(requests_, lines_), 0u); }

TEST_F(CheckerTest, PerturbedWeightFails) {
  lines_[0] = Answer("r0", "{\"entity\":\"majestic_theatre\",\"weight\":1}", 0.7001);
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, SwappedAnswersFail) {
  std::swap(lines_[1], lines_[2]);
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, DroppedAnswerFails) {
  lines_.erase(lines_.begin() + 1);
  EXPECT_GT(Problems(requests_, lines_), 0u);
  lines_.pop_back();  // A dropped last answer leaves a request unanswered.
  EXPECT_GT(Problems({requests_[0], requests_[1]}, {lines_[0]}), 0u);
}

TEST_F(CheckerTest, PointThatIsNotTheModeFails) {
  lines_[0] = Answer("r0", "{\"entity\":\"majestic_theatre\",\"weight\":1}", 0.7, 40.72);
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, AttentionMustNameTheTextsEntities) {
  lines_[0] = Answer("r0", "{\"entity\":\"brooklyn\",\"weight\":1}");
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, AttentionWeightsMustSumToOne) {
  lines_[0] = Answer("r0", "{\"entity\":\"majestic_theatre\",\"weight\":0.9}");
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, FallbackMustMatchTheText) {
  requests_[1].entities = {"majestic_theatre"};  // The text now names one.
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, OneEntitySetOneBody) {
  requests_.push_back(requests_[0]);
  lines_.push_back(Answer("r3", "{\"entity\":\"majestic_theatre\",\"weight\":1}"));
  EXPECT_EQ(Problems(requests_, lines_), 0u);
  lines_[3] = Answer("r3", "{\"entity\":\"majestic_theatre\",\"weight\":1}", 0.69999999999);
  EXPECT_GT(Problems(requests_, lines_), 0u);
}

TEST_F(CheckerTest, ErrorAndDegradedAnswersCountAsFailed) {
  ResponseChecker checker(40.75);
  AnswerFacts facts;
  std::string error;
  EXPECT_EQ(checker.Check(requests_[0], "{\"error\":\"busy\",\"line\":1}", "r0", &facts, &error),
            Verdict::kFailed);
  std::string degraded = lines_[0];
  degraded.replace(degraded.find("\"degraded\":false"), 16, "\"degraded\":true");
  EXPECT_EQ(checker.Check(requests_[0], degraded, "r0", &facts, &error), Verdict::kFailed);
  EXPECT_EQ(checker.Check(requests_[0], lines_[0], "r0", &facts, &error), Verdict::kOk);
  EXPECT_DOUBLE_EQ(facts.lat, 40.7);
}

TEST(SurfaceIndexTest, LongestMatchSigilsAndDeduplication) {
  edge::data::WorldConfig world;
  SurfaceIndex index(world);
  index.Add("times square", "times_square");
  index.Add("times", "times");
  index.Add("presby", "presbyterian_hospital");
  index.Add("new year's eve", "new_year's_eve");
  EXPECT_EQ(index.Match("Lunch at Times Square, times square again!"),
            std::vector<std::string>{"times_square"});
  EXPECT_EQ(index.Match("at #presby and @nowhere"),
            (std::vector<std::string>{"@nowhere", "presbyterian_hospital"}));
  EXPECT_EQ(index.Match("happy New Year's Eve"), std::vector<std::string>{"new_year's_eve"});
  EXPECT_TRUE(index.Match("nothing here").empty());
  EXPECT_EQ(Canonical("Majestic Theatre"), "majestic_theatre");
  EXPECT_EQ(Canonical("#Covid19"), "#Covid19");
}

TEST(JsonTest, ParsesNestedDocumentsAndRejectsGarbage) {
  Json doc;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"a":[1,-2.5e1,{"b":"xé\n"}],"t":true,"n":null})", &doc,
                        &error));
  ASSERT_NE(doc.Find("a"), nullptr);
  EXPECT_EQ(doc.Find("a")->array[1].number, -25.0);
  EXPECT_EQ(doc.Find("a")->array[2].Find("b")->string, "x\xc3\xa9\n");
  EXPECT_FALSE(ParseJson("{\"a\":1} x", &doc, &error));
  EXPECT_FALSE(ParseJson("{\"a\":01}", &doc, &error));
  EXPECT_FALSE(ParseJson("[1,]", &doc, &error));
  std::string out;
  AppendJsonString(&out, "q\"\\\n");
  EXPECT_EQ(out, "\"q\\\"\\\\\\n\"");
}

TEST(HaversineTest, KnownDistances) {
  EXPECT_NEAR(HaversineKm(0, 0, 0, 1), 111.195, 1e-3);
  EXPECT_EQ(HaversineKm(40.7, -74.0, 40.7, -74.0), 0.0);
}

}  // namespace
}  // namespace perfbench
