// Each output check accepts a consistent outcome and fails on a doctored
// copy of it.
#include <gtest/gtest.h>

#include "checks.h"

namespace perfbench {
namespace {

GatewayOutcome
good_gateway()
{
    GatewayOutcome o;
    o.clients = 4;
    o.target_turns = 4;
    o.completed = 4;
    o.output_tokens = 21;
    o.tokens_delivered = 4 * 21;
    o.mean_think_s = 1.0;
    // R = 3 s, Z = 1 s: 4 clients complete 4 turns in 4 s.
    o.ttft = {1.0, 1.0, 1.0, 1.0};
    o.e2e = {3.0, 3.0, 3.0, 3.0};
    o.makespan_s = 4.0;
    return o;
}

TEST(GatewayCheck, AcceptsConsistentOutcome)
{
    Failures f;
    check_gateway(good_gateway(), f);
    EXPECT_TRUE(f.empty()) << f.front();
}

TEST(GatewayCheck, DroppedTokenFailsConservation)
{
    GatewayOutcome o = good_gateway();
    o.tokens_delivered -= 1;
    Failures f;
    check_gateway(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(GatewayCheck, ShedTurnFails)
{
    GatewayOutcome o = good_gateway();
    o.shed = 1;
    Failures f;
    check_gateway(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(GatewayCheck, ShortOfTargetFails)
{
    GatewayOutcome o = good_gateway();
    o.target_turns = 5;
    Failures f;
    check_gateway(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(GatewayCheck, TtftAfterE2eFails)
{
    GatewayOutcome o = good_gateway();
    o.ttft[2] = 3.5;
    Failures f;
    check_gateway(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(GatewayCheck, ResponseTimeLawViolationFails)
{
    GatewayOutcome o = good_gateway();
    o.makespan_s *= 1.0 + 2.0 * kResponseTimeLawTolerance;
    Failures f;
    check_gateway(o, f);
    EXPECT_FALSE(f.empty());
}

PlanPoint
point(const char *memory, double rate, const char *placement, double tbt)
{
    PlanPoint p;
    p.model = "OPT-30B";
    p.memory = memory;
    p.rated_rate = rate;
    p.placement = placement;
    p.batch = 8;
    p.feasible = true;
    p.tbt_s = tbt;
    p.roofline_s = 0.5;
    return p;
}

PlanOutcome
good_plan()
{
    PlanOutcome o;
    o.points = {point("DRAM", 24e9, "Baseline", 0.9),
                point("DRAM", 24e9, "HeLM", 0.6),
                point("NVDRAM", 20e9, "Baseline", 1.0),
                point("NVDRAM", 20e9, "HeLM", 0.7)};
    o.ceilings = {{"OPT-30B", false, "DRAM", "Baseline", 40},
                  {"OPT-30B", false, "DRAM", "All-CPU", 80}};
    o.latency = {1.0, 0.6, 10.0, 1.0, 0.6, 10.0};
    o.throughput = {5.0, 0.9, 30.0, 5.0, 0.9, 30.0};
    o.tbt_limit_s = 0.8;
    return o;
}

TEST(OfflineCheck, AcceptsConsistentOutcome)
{
    Failures f;
    check_offline(good_plan(), f);
    EXPECT_TRUE(f.empty()) << f.front();
}

TEST(OfflineCheck, SwappedHelmBaselineFailsPlacementProperty)
{
    PlanOutcome o = good_plan();
    std::swap(o.points[0].tbt_s, o.points[1].tbt_s);
    Failures f;
    check_offline(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, KnownFaultCountsInsteadOfFailing)
{
    PlanOutcome o = good_plan();
    o.points[0].tbt_s = 0.62; // DRAM Baseline now just under DRAM HeLM
    o.points[1].tbt_s = 0.62 * 1.005;
    o.points[1].known_fault = true;
    Failures f;
    EXPECT_EQ(check_offline(o, f), 1u);
    EXPECT_TRUE(f.empty()) << f.front();
    EXPECT_EQ(check_offline(good_plan(), f), 0u);

    o.points[1].tbt_s = 0.62 * 1.02; // twice the known fault's margin
    EXPECT_EQ(check_offline(o, f), 0u);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, SlowerFasterTierFailsBandwidthMonotonicity)
{
    PlanOutcome o = good_plan();
    o.points[1].tbt_s = 0.75; // DRAM HeLM slower than NVDRAM HeLM
    Failures f;
    check_offline(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, TbtUnderRooflineFails)
{
    PlanOutcome o = good_plan();
    o.points[1].roofline_s = 0.65;
    Failures f;
    check_offline(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, AllCpuCeilingBelowBaselineFails)
{
    PlanOutcome o = good_plan();
    o.ceilings[1].max_batch = 39;
    Failures f;
    check_offline(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, ResimulationMismatchFails)
{
    PlanOutcome o = good_plan();
    o.throughput.resim_throughput *= 1.0 + 1e-6;
    Failures f;
    check_offline(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, LatencyPlanOverLimitFails)
{
    PlanOutcome o = good_plan();
    o.tbt_limit_s = 0.5;
    Failures f;
    check_offline(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(OfflineCheck, RooflineFromOptDimensions)
{
    // OPT-175B fp16: 12 * 96 * 12288^2 * 2 bytes of decoder matrices.
    const double bytes = opt_decoder_weight_bytes(96, 12288, false);
    EXPECT_DOUBLE_EQ(bytes, 12.0 * 96 * 12288.0 * 12288.0 * 2.0);
    EXPECT_DOUBLE_EQ(opt_decoder_weight_bytes(96, 12288, true), bytes / 4);
    EXPECT_DOUBLE_EQ(decode_roofline_s(100.0, 40.0, 10.0), 6.0);
    EXPECT_DOUBLE_EQ(decode_roofline_s(30.0, 40.0, 10.0), 0.0);
}

EdfOutcome
good_edf()
{
    EdfOutcome o;
    o.generated = o.completed = 10;
    o.trace_output_tokens = o.generated_tokens = 200;
    o.preemptions = o.resumes = 3;
    o.demoted_bytes = o.promoted_bytes = 3 * 4096;
    return o;
}

TEST(EdfCheck, AcceptsConsistentOutcome)
{
    Failures f;
    check_edf(good_edf(), f);
    EXPECT_TRUE(f.empty()) << f.front();
}

TEST(EdfCheck, DemotedOneBlockShortFailsKvConservation)
{
    EdfOutcome o = good_edf();
    o.demoted_bytes -= 4096;
    Failures f;
    check_edf(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(EdfCheck, DroppedTokenFails)
{
    EdfOutcome o = good_edf();
    o.generated_tokens -= 1;
    Failures f;
    check_edf(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(EdfCheck, RejectedOrIncompleteFails)
{
    EdfOutcome o = good_edf();
    o.completed = 9;
    o.rejected = 1;
    Failures f;
    check_edf(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(EdfCheck, NoPreemptionFails)
{
    EdfOutcome o = good_edf();
    o.preemptions = o.resumes = 0;
    o.demoted_bytes = o.promoted_bytes = 0;
    Failures f;
    check_edf(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(EdfCheck, UnresumedPreemptionFails)
{
    EdfOutcome o = good_edf();
    o.resumes = 2;
    Failures f;
    check_edf(o, f);
    EXPECT_FALSE(f.empty());
}

ClusterOutcome
good_cluster()
{
    ClusterOutcome o;
    o.mode = "replica";
    o.submitted = o.completed = 8;
    o.gpu_h2d_bytes = {100.0, 100.0, 100.0, 100.0};
    o.gpu_busy_s = {1.0, 1.5, 2.0, 1.0};
    o.read_port_bytes = 400.0;
    o.read_port_rate = 200.0;
    o.makespan_s = 2.0;
    return o;
}

TEST(ClusterCheck, AcceptsConsistentOutcome)
{
    Failures f;
    check_cluster(good_cluster(), f);
    EXPECT_TRUE(f.empty()) << f.front();
}

TEST(ClusterCheck, MissingGpuBytesFailPortConservation)
{
    ClusterOutcome o = good_cluster();
    o.gpu_h2d_bytes[3] -= 1.0;
    Failures f;
    check_cluster(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(ClusterCheck, PortOverRateFails)
{
    ClusterOutcome o = good_cluster();
    o.read_port_rate = 150.0;
    Failures f;
    check_cluster(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(ClusterCheck, GpuBusyBeyondMakespanFails)
{
    ClusterOutcome o = good_cluster();
    o.gpu_busy_s[2] = 2.5;
    Failures f;
    check_cluster(o, f);
    EXPECT_FALSE(f.empty());
}

TEST(ClusterCheck, IncompleteFails)
{
    ClusterOutcome o = good_cluster();
    o.completed = 7;
    Failures f;
    check_cluster(o, f);
    EXPECT_FALSE(f.empty());
}

} // namespace
} // namespace perfbench
