// The benchmark's own tests: every workload emits every named metric at
// tiny scale, and the answer checker catches a DB that serves stale
// values.

#include <map>
#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "bench.h"
#include "checker.h"

namespace perfbench {
namespace {

std::vector<std::string> Names(const std::vector<MetricDef>& defs) {
  std::vector<std::string> names;
  for (const MetricDef& d : defs) names.push_back(d.name);
  return names;
}

RunOptions Tiny(const std::string& workload, bool trace) {
  RunOptions ro;
  ro.workload = workload;
  ro.seed = 7;
  ro.seconds = 1;
  ro.trace = trace;
  ro.tiny = true;
  return ro;
}

TEST(PerfbenchTest, MetricNamesAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const auto& defs : {EndToEndMetrics(), PerLayerMetrics()}) {
    for (const MetricDef& d : defs) {
      EXPECT_TRUE(seen.insert(d.name).second) << d.name;
      EXPECT_LE(d.name.size(), 64u);
      EXPECT_FALSE(d.unit.empty()) << d.name;
    }
  }
  EXPECT_EQ(EndToEndMetrics().front().name, "setup_s");
}

class TinyRun : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyRun, EmitsEveryEndToEndMetric) {
  RunReport report;
  ASSERT_TRUE(RunWorkload(Tiny(GetParam(), false), &report).ok());
  EXPECT_TRUE(report.correct);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.attempted, 0u);
  std::vector<std::string> got;
  for (const Metric& m : report.metrics) {
    got.push_back(m.name);
    EXPECT_GT(m.value, 0) << m.name;
  }
  EXPECT_EQ(got, Names(EndToEndMetrics()));
}

TEST_P(TinyRun, EmitsEveryPerLayerMetric) {
  RunReport report;
  ASSERT_TRUE(RunWorkload(Tiny(GetParam(), true), &report).ok());
  EXPECT_TRUE(report.correct);
  EXPECT_EQ(report.failed, 0u);
  std::vector<std::string> got;
  for (const Metric& m : report.metrics) got.push_back(m.name);
  EXPECT_EQ(got, Names(PerLayerMetrics()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRun,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Serves, for every key, the first value ever written to it.
class StaleDb final : public shield::DB {
 public:
  explicit StaleDb(std::unique_ptr<shield::DB> base) : base_(std::move(base)) {}

  shield::Status Put(const shield::WriteOptions& o, const shield::Slice& key,
                     const shield::Slice& value) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      first_.emplace(key.ToString(), value.ToString());
    }
    return base_->Put(o, key, value);
  }
  shield::Status Get(const shield::ReadOptions& o, const shield::Slice& key,
                     std::string* value) override {
    shield::Status s = base_->Get(o, key, value);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = first_.find(key.ToString());
    if (s.ok() && it != first_.end()) *value = it->second;
    return s;
  }

  shield::Status Delete(const shield::WriteOptions& o,
                        const shield::Slice& key) override {
    return base_->Delete(o, key);
  }
  shield::Status Write(const shield::WriteOptions& o,
                       shield::WriteBatch* updates) override {
    return base_->Write(o, updates);
  }
  std::vector<shield::Status> MultiGet(
      const shield::ReadOptions& o, const std::vector<shield::Slice>& keys,
      std::vector<std::string>* values) override {
    return base_->MultiGet(o, keys, values);
  }
  shield::Iterator* NewIterator(const shield::ReadOptions& o) override {
    return base_->NewIterator(o);
  }
  const shield::Snapshot* GetSnapshot() override {
    return base_->GetSnapshot();
  }
  void ReleaseSnapshot(const shield::Snapshot* s) override {
    base_->ReleaseSnapshot(s);
  }
  shield::Status Flush() override { return base_->Flush(); }
  shield::Status CompactRange(const shield::Slice* b,
                              const shield::Slice* e) override {
    return base_->CompactRange(b, e);
  }
  bool GetProperty(const shield::Slice& p, std::string* v) override {
    return base_->GetProperty(p, v);
  }
  shield::Status VerifyIntegrity() override {
    return base_->VerifyIntegrity();
  }
  shield::Status Resume() override { return base_->Resume(); }
  shield::Status TryCatchUp() override { return base_->TryCatchUp(); }
  void WaitForIdle() override { base_->WaitForIdle(); }

 private:
  std::unique_ptr<shield::DB> base_;
  std::mutex mu_;
  std::map<std::string, std::string> first_;
};

TEST(PerfbenchTest, CheckerFailsOnStaleValues) {
  for (const char* workload : {"read-cold", "ds"}) {
    RunOptions ro = Tiny(workload, false);
    ro.decorate = [](std::unique_ptr<shield::DB> db) {
      return std::unique_ptr<shield::DB>(new StaleDb(std::move(db)));
    };
    RunReport report;
    ASSERT_TRUE(RunWorkload(ro, &report).ok());
    EXPECT_FALSE(report.correct) << workload;
  }
}

TEST(PerfbenchTest, JudgeSeparatesWrongFromFailed) {
  Keyspace ks(/*seed=*/3, /*keys=*/16, /*value_size=*/32, /*writers=*/1);
  const std::string v1 = ks.Value(5, 1);
  const std::string v2 = ks.Value(5, 2);
  EXPECT_EQ(ks.Judge(5, 0, 0, shield::Status::NotFound(""), ""),
            Verdict::kOk);
  EXPECT_EQ(ks.Judge(5, 1, 1, shield::Status::OK(), v1), Verdict::kOk);
  // The owner's Put of version 2 may be in flight.
  EXPECT_EQ(ks.Judge(5, 1, 1, shield::Status::OK(), v2), Verdict::kOk);
  // Stale: version 1 after version 2 was acknowledged.
  EXPECT_EQ(ks.Judge(5, 2, 2, shield::Status::OK(), v1), Verdict::kWrong);
  // Lost: an acknowledged key reported absent.
  EXPECT_EQ(ks.Judge(5, 1, 1, shield::Status::NotFound(""), ""),
            Verdict::kWrong);
  // Another key's value, or a corrupted byte.
  EXPECT_EQ(ks.Judge(6, 1, 1, shield::Status::OK(), v1), Verdict::kWrong);
  std::string torn = v1;
  torn.back() ^= 1;
  EXPECT_EQ(ks.Judge(5, 1, 1, shield::Status::OK(), torn), Verdict::kWrong);
  // An absent key that returns a value.
  EXPECT_EQ(ks.Judge(20, 0, 0, shield::Status::OK(), v1), Verdict::kWrong);
  EXPECT_EQ(ks.Judge(5, 1, 1, shield::Status::IOError("disk"), ""),
            Verdict::kFailed);
}

}  // namespace
}  // namespace perfbench
