// Tests for the programmable-switch substrate: the register access
// discipline (one access per array per pass, stage ordering) and resubmit
// semantics that Algorithm 2 is built on.
#include <gtest/gtest.h>

#include "switchsim/pipeline.h"

namespace netlock {
namespace {

TEST(PipelineTest, ReadWriteRoundTrip) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> array(pipeline, 0, 8, -1);
  PacketPass pass = pipeline.BeginPass();
  EXPECT_EQ(array.Read(pass, 3), -1);
  PacketPass pass2 = pipeline.BeginPass();
  array.Write(pass2, 3, 42);
  PacketPass pass3 = pipeline.BeginPass();
  EXPECT_EQ(array.Read(pass3, 3), 42);
}

TEST(PipelineTest, SecondAccessSamePassAborts) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> array(pipeline, 0, 8);
  PacketPass pass = pipeline.BeginPass();
  array.Read(pass, 0);
  EXPECT_DEATH(array.Read(pass, 1), "CHECK");
}

TEST(PipelineTest, ReadModifyWriteIsOneAccess) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> array(pipeline, 0, 8);
  PacketPass pass = pipeline.BeginPass();
  const int result =
      array.ReadModifyWrite(pass, 2, [](int& cell) { return ++cell; });
  EXPECT_EQ(result, 1);
  EXPECT_DEATH(array.Read(pass, 2), "CHECK");
}

TEST(PipelineTest, StageOrderEnforced) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> early(pipeline, 1, 4);
  RegisterArray<int> late(pipeline, 5, 4);
  PacketPass pass = pipeline.BeginPass();
  late.Read(pass, 0);
  EXPECT_DEATH(early.Read(pass, 0), "CHECK");
}

TEST(PipelineTest, SameStageDifferentArraysAllowed) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> a(pipeline, 2, 4);
  RegisterArray<int> b(pipeline, 2, 4);
  PacketPass pass = pipeline.BeginPass();
  a.Read(pass, 0);
  b.Read(pass, 0);  // Distinct array in the same stage: fine.
  SUCCEED();
}

TEST(PipelineTest, ResubmitResetsAccessAndStage) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> early(pipeline, 1, 4);
  RegisterArray<int> late(pipeline, 5, 4);
  PacketPass pass = pipeline.BeginPass();
  late.Read(pass, 0);
  pipeline.Resubmit(pass);
  early.Read(pass, 0);  // Fresh pass: earlier stage reachable again.
  late.Read(pass, 0);
  EXPECT_EQ(pass.pass_index(), 1u);
  EXPECT_EQ(pipeline.total_resubmits(), 1u);
}

TEST(PipelineTest, ResubmitBoundEnforced) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12, /*max_resubmits=*/2);
  PacketPass pass = pipeline.BeginPass();
  pipeline.Resubmit(pass);
  pipeline.Resubmit(pass);
  EXPECT_DEATH(pipeline.Resubmit(pass), "CHECK");
}

TEST(PipelineTest, DistinctPassesDoNotInterfere) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> array(pipeline, 0, 4);
  PacketPass p1 = pipeline.BeginPass();
  PacketPass p2 = pipeline.BeginPass();
  array.Read(p1, 0);
  array.Read(p2, 0);  // Different packet: its own single access.
  SUCCEED();
}

TEST(PipelineTest, ControlPlaneAccessUnrestricted) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> array(pipeline, 0, 4);
  PacketPass pass = pipeline.BeginPass();
  array.Read(pass, 0);
  array.ControlWrite(0, 9);       // Control plane bypasses the discipline.
  EXPECT_EQ(array.ControlRead(0), 9);
}

TEST(PipelineTest, OutOfBoundsIndexAborts) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 12);
  RegisterArray<int> array(pipeline, 0, 4);
  PacketPass pass = pipeline.BeginPass();
  EXPECT_DEATH(array.Read(pass, 4), "CHECK");
}

TEST(PipelineTest, StageBeyondBudgetAborts) {
  MetricsRegistry metrics;
  Pipeline pipeline(metrics, 4);
  EXPECT_DEATH(RegisterArray<int>(pipeline, 4, 8), "CHECK");
}

}  // namespace
}  // namespace netlock
