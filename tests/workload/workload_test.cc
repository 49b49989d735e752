#include "src/workload/workload.h"

#include <vector>

#include <gtest/gtest.h>

namespace webcc {
namespace {

Workload SmallValidWorkload() {
  Workload load;
  load.name = "test";
  load.objects.push_back(ObjectSpec{"/a", FileType::kHtml, 100, Days(1)});
  load.objects.push_back(ObjectSpec{"/b", FileType::kGif, 200, Days(2)});
  load.horizon = SimTime::Epoch() + Days(10);
  load.modifications.push_back(ModificationEvent{SimTime::Epoch() + Days(1), 0, -1});
  load.requests.push_back(RequestEvent{SimTime::Epoch() + Hours(1), 1, 0, false});
  load.requests.push_back(RequestEvent{SimTime::Epoch() + Days(2), 0, 1, true});
  return load;
}

TEST(WorkloadTest, ValidWorkloadPasses) {
  EXPECT_EQ(SmallValidWorkload().Validate(), "");
}

TEST(WorkloadTest, FinalizeSortsEvents) {
  Workload load = SmallValidWorkload();
  load.requests.insert(load.requests.begin(),
                       RequestEvent{SimTime::Epoch() + Days(5), 0, 0, false});
  load.modifications.push_back(ModificationEvent{SimTime::Epoch() + Hours(1), 1, -1});
  load.Finalize();
  EXPECT_EQ(load.Validate(), "");
  EXPECT_LE(load.requests.front().at, load.requests.back().at);
  EXPECT_LE(load.modifications.front().at, load.modifications.back().at);

  // Unsorted, with co-timed events: the sort is stable, so co-timed events
  // keep their input order (the client ids and sizes tell them apart).
  Workload cotimed = SmallValidWorkload();
  const SimTime at = SimTime::Epoch() + Days(3);
  cotimed.requests = {{at, 0, 7, false}, {at, 1, 8, false}, {SimTime::Epoch(), 0, 9, false},
                      {at, 0, 6, false}};
  cotimed.modifications = {{at, 1, 30}, {at, 0, 10}, {SimTime::Epoch() + Days(1), 0, 5},
                           {at, 1, 20}};
  cotimed.Finalize();
  EXPECT_EQ(cotimed.Validate(), "");
  std::vector<uint32_t> clients;
  for (const RequestEvent& req : cotimed.requests) {
    clients.push_back(req.client_id);
  }
  EXPECT_EQ(clients, (std::vector<uint32_t>{9, 7, 8, 6}));
  std::vector<int64_t> sizes;
  for (const ModificationEvent& m : cotimed.modifications) {
    sizes.push_back(m.new_size);
  }
  EXPECT_EQ(sizes, (std::vector<int64_t>{5, 30, 10, 20}));
}

TEST(WorkloadTest, DetectsOutOfRangeObjectIndex) {
  Workload load = SmallValidWorkload();
  load.requests.push_back(RequestEvent{SimTime::Epoch() + Days(3), 99, 0, false});
  EXPECT_NE(load.Validate().find("out of range"), std::string::npos);
}

TEST(WorkloadTest, DetectsUnsortedEvents) {
  Workload load = SmallValidWorkload();
  load.requests.push_back(RequestEvent{SimTime::Epoch() + Hours(1), 0, 0, false});
  EXPECT_NE(load.Validate().find("out of order"), std::string::npos);
}

TEST(WorkloadTest, DetectsEventsBeyondHorizon) {
  Workload load = SmallValidWorkload();
  load.requests.push_back(RequestEvent{SimTime::Epoch() + Days(99), 0, 0, false});
  EXPECT_NE(load.Validate().find("beyond horizon"), std::string::npos);
}

TEST(WorkloadTest, DetectsNegativeSizeAndAge) {
  Workload load = SmallValidWorkload();
  load.objects[0].size_bytes = -1;
  EXPECT_NE(load.Validate().find("negative size"), std::string::npos);
  load.objects[0].size_bytes = 1;
  load.objects[0].initial_age = -Days(1);
  EXPECT_NE(load.Validate().find("negative initial age"), std::string::npos);
}

TEST(WorkloadTest, Aggregates) {
  const Workload load = SmallValidWorkload();
  EXPECT_EQ(load.TotalObjectBytes(), 300);
  EXPECT_DOUBLE_EQ(load.MeanObjectBytes(), 150.0);
  EXPECT_EQ(load.RequestCount(), 2u);
  EXPECT_EQ(load.ModificationCount(), 1u);
  EXPECT_DOUBLE_EQ(load.RemoteFraction(), 0.5);
}

TEST(WorkloadTest, EmptyWorkloadAggregates) {
  Workload load;
  EXPECT_EQ(load.TotalObjectBytes(), 0);
  EXPECT_DOUBLE_EQ(load.MeanObjectBytes(), 0.0);
  EXPECT_DOUBLE_EQ(load.RemoteFraction(), 0.0);
  EXPECT_EQ(load.Validate(), "");
}

}  // namespace
}  // namespace webcc
