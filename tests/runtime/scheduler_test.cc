/**
 * @file
 * Unit + integration tests for the request-level scheduler
 * (runtime/scheduler.h) and the serve_workload compatibility shim.
 */
#include <gtest/gtest.h>

#include "common/summary.h"
#include "model/opt.h"
#include "runtime/scheduler.h"
#include "runtime/serving.h"

namespace helm::runtime {
namespace {

using model::OptVariant;

ServingSpec
small_spec()
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    return spec;
}

/** n requests of the paper shape, all arriving at @p arrival. */
std::vector<workload::TimedRequest>
burst(std::uint64_t n, Seconds arrival, std::uint64_t first_id = 0)
{
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < n; ++i) {
        stream.push_back(workload::TimedRequest{
            workload::Request{first_id + i, 128, 21}, arrival});
    }
    return stream;
}

/** An fcfs config with an explicit batch ceiling. */
ServingConfig
fixed_batch(std::uint64_t max_batch)
{
    ServingConfig config;
    config.auto_max_batch = false;
    config.max_batch = max_batch;
    return config;
}

TEST(Scheduler, CreateValidatesSpecAndPolicy)
{
    ServingSpec bad = small_spec();
    bad.shape.output_tokens = 0;
    EXPECT_EQ(Server::create(bad).status().code(),
              StatusCode::kInvalidArgument);

    ServingConfig no_queue;
    no_queue.max_queue_length = 0;
    EXPECT_EQ(Server::create(small_spec(), no_queue).status().code(),
              StatusCode::kInvalidArgument);

    ServingConfig negative_delay;
    negative_delay.max_queue_delay = -0.1;
    EXPECT_EQ(
        Server::create(small_spec(), negative_delay).status().code(),
        StatusCode::kInvalidArgument);
}

TEST(Scheduler, AutoSizedBatchCeilingIsPositive)
{
    auto server = Server::create(small_spec());
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    EXPECT_GE(server->effective_max_batch(), 1u);
}

TEST(Scheduler, RejectsBadSubmissions)
{
    auto server = Server::create(small_spec());
    ASSERT_TRUE(server.is_ok());
    EXPECT_EQ(server->submit(workload::Request{0, 128, 21}, -1.0).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(server->submit(workload::Request{0, 0, 21}, 0.0).code(),
              StatusCode::kInvalidArgument);
}

TEST(Scheduler, EmptyRunYieldsEmptyReport)
{
    auto server = Server::create(small_spec());
    ASSERT_TRUE(server.is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    EXPECT_EQ(report->submitted, 0u);
    EXPECT_EQ(report->completed, 0u);
    EXPECT_EQ(report->batches_formed, 0u);
}

TEST(Scheduler, FcfsOrderingAndGreedyBatching)
{
    ServingConfig policy = fixed_batch(4);
    policy.max_queue_delay = 0.0; // greedy dispatch
    auto server = Server::create(small_spec(), policy);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(8, 0.0)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();

    ASSERT_EQ(report->completed, 8u);
    EXPECT_EQ(report->batches_formed, 2u);
    EXPECT_DOUBLE_EQ(report->mean_batch_size, 4.0);
    for (std::size_t i = 0; i < report->requests.size(); ++i) {
        // FCFS: dispatch order == arrival (id) order.
        EXPECT_EQ(report->requests[i].id, i);
        EXPECT_EQ(report->requests[i].batch_index, i / 4);
    }
    // First batch launches immediately; second waits for the engine.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(report->requests[i].queueing_delay, 0.0);
    for (std::size_t i = 4; i < 8; ++i)
        EXPECT_GT(report->requests[i].queueing_delay, 0.0);
}

TEST(Scheduler, MaxQueueDelayHonored)
{
    // A lone request with batch-mates that never come: the scheduler
    // must give up waiting exactly at max_queue_delay.
    ServingConfig policy = fixed_batch(8);
    policy.max_queue_delay = 0.3;
    auto server = Server::create(small_spec(), policy);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    ASSERT_EQ(report->completed, 1u);
    EXPECT_NEAR(report->requests[0].queueing_delay, 0.3, 1e-12);

    // Greedy mode: no waiting at all.
    ServingConfig greedy = fixed_batch(8);
    greedy.max_queue_delay = 0.0;
    auto greedy_server = Server::create(small_spec(), greedy);
    ASSERT_TRUE(greedy_server.is_ok());
    ASSERT_TRUE(
        greedy_server->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    const auto greedy_report = greedy_server->serve();
    ASSERT_TRUE(greedy_report.is_ok());
    EXPECT_DOUBLE_EQ(greedy_report->requests[0].queueing_delay, 0.0);
}

TEST(Scheduler, BatchLaunchesEarlyOnceFull)
{
    // Two requests 0.1 s apart with a generous delay budget: the batch
    // fills at 0.1 s and must launch then, not at the deadline.
    ServingConfig policy = fixed_batch(2);
    policy.max_queue_delay = 5.0;
    auto server = Server::create(small_spec(), policy);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(workload::Request{0, 128, 21}, 0.0).is_ok());
    ASSERT_TRUE(server->submit(workload::Request{1, 128, 21}, 0.1).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    ASSERT_EQ(report->completed, 2u);
    EXPECT_EQ(report->batches_formed, 1u);
    EXPECT_NEAR(report->requests[0].queueing_delay, 0.1, 1e-12);
    EXPECT_NEAR(report->requests[1].queueing_delay, 0.0, 1e-12);
}

TEST(Scheduler, QueueCapShedsLoadAndDepthStaysBounded)
{
    ServingConfig policy = fixed_batch(4);
    policy.max_queue_delay = 0.0;
    policy.max_queue_length = 8;
    auto server = Server::create(small_spec(), policy);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(20, 0.0)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());

    EXPECT_EQ(report->submitted, 20u);
    EXPECT_EQ(report->completed, 8u);
    EXPECT_EQ(report->rejected, 12u);
    EXPECT_EQ(report->rejected_ids.size(), 12u);
    EXPECT_LE(report->max_queue_depth, 8u);
    // FCFS admission: the first 8 ids survive.
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(report->requests[i].id, i);
}

TEST(Scheduler, ReportAggregatesAreConsistent)
{
    ServingConfig policy = fixed_batch(4);
    policy.max_queue_delay = 0.1;
    policy.enforce_ttft = true;
    policy.ttft_target = 1e9; // everything meets it
    auto server = Server::create(small_spec(), policy);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(6, 0.0)).is_ok());
    ASSERT_TRUE(server->submit(burst(3, 2.0, 6)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());

    ASSERT_EQ(report->completed, 9u);
    EXPECT_EQ(report->total_tokens, 9u * 21u);
    EXPECT_DOUBLE_EQ(report->slo_attainment, 1.0);
    EXPECT_DOUBLE_EQ(report->goodput, report->throughput);
    EXPECT_GT(report->makespan, 0.0);
    EXPECT_NEAR(report->throughput,
                static_cast<double>(report->total_tokens) /
                    report->makespan,
                1e-9);
    // e2e >= ttft >= queueing delay for every request.
    for (const auto &r : report->requests) {
        EXPECT_GE(r.ttft, r.queueing_delay);
        EXPECT_GE(r.e2e_latency, r.ttft);
    }
    // Percentiles come from the shared nearest-rank helper.
    std::vector<double> ttfts;
    for (const auto &r : report->requests)
        ttfts.push_back(r.ttft);
    EXPECT_DOUBLE_EQ(report->ttft_percentile(99.0),
                     percentile_nearest_rank(ttfts, 99.0));
}

TEST(Scheduler, SloSplitsGoodputFromThroughput)
{
    // Impossible TTFT target: goodput collapses to zero while
    // throughput does not.
    ServingConfig policy = fixed_batch(4);
    policy.enforce_ttft = true;
    policy.ttft_target = 1e-6;
    auto server = Server::create(small_spec(), policy);
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(4, 0.0)).is_ok());
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok());
    EXPECT_DOUBLE_EQ(report->slo_attainment, 0.0);
    EXPECT_DOUBLE_EQ(report->goodput, 0.0);
    EXPECT_GT(report->throughput, 0.0);
}

TEST(Scheduler, EverythingShedLeavesAnEmptyMakespan)
{
    // Three prompts that do not fit HBM even alone: nothing completes,
    // so no span of the run may be booked as engine idle.
    ServingSpec spec = small_spec();
    spec.model = model::opt_config(OptVariant::kOpt30B);
    spec.compress_weights = true;
    auto server = Server::create(spec);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    server->enable_telemetry(true);
    for (std::uint64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(server
                        ->submit(workload::Request{i, 400000, 21},
                                 5.0 + static_cast<double>(i))
                        .is_ok());
    }
    const auto report = server->serve();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report->hbm_rejected, 3u);
    EXPECT_EQ(report->completed, 0u);
    EXPECT_EQ(report->makespan, 0.0);
    EXPECT_EQ(report->throughput, 0.0);
    EXPECT_EQ(server->attribution().wall(), 0.0);
}

TEST(Scheduler, ShimReproducesSeedAggregatesBitForBit)
{
    // The serve_workload shim must reproduce the seed's serving loop
    // exactly: same simulate_inference calls, same aggregation.
    const auto batches = workload::paper_workload(4);
    const ServingSpec base = small_spec();

    // Golden: the pre-Server loop, inlined.
    Seconds total_time = 0.0;
    std::uint64_t total_tokens = 0;
    std::vector<double> ttfts;
    std::vector<double> tbts;
    for (const auto &batch : batches) {
        ServingSpec spec = base;
        spec.batch = batch.size();
        spec.shape = batch.shape();
        spec.repeats = 1;
        spec.keep_records = false;
        const auto run = simulate_inference(spec);
        ASSERT_TRUE(run.is_ok());
        total_time += run->metrics.total_time;
        total_tokens += run->metrics.total_tokens;
        ttfts.push_back(run->metrics.ttft);
        tbts.push_back(run->metrics.tbt);
    }

    const auto shim = serve_workload(base, batches);
    ASSERT_TRUE(shim.is_ok()) << shim.status().to_string();
    EXPECT_EQ(shim->aggregate.ttft, mean_discarding_first(ttfts));
    EXPECT_EQ(shim->aggregate.tbt, mean_discarding_first(tbts));
    EXPECT_EQ(shim->aggregate.total_time, total_time);
    EXPECT_EQ(shim->aggregate.total_tokens, total_tokens);
    EXPECT_EQ(shim->aggregate.throughput,
              static_cast<double>(total_tokens) / total_time);
    ASSERT_EQ(shim->per_batch.size(), batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        EXPECT_EQ(shim->per_batch[b].ttft, ttfts[b]);
        EXPECT_EQ(shim->per_batch[b].tbt, tbts[b]);
    }
    EXPECT_EQ(shim->padded_tokens, 0u);
}

TEST(Scheduler, ShimPropagatesEngineFailures)
{
    ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt175B);
    spec.memory = mem::ConfigKind::kNvdram;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.compress_weights = true;
    const auto batches = workload::paper_workload(500);
    EXPECT_EQ(serve_workload(spec, batches).status().code(),
              StatusCode::kCapacityExceeded);
}

TEST(SchedulerIntegration, HelmBeatsBaselineP99TtftOnNvdram)
{
    // The paper's HeLM-vs-Baseline latency gap (Sec. V-B) must survive
    // the serving front end: same arrival stream, same scheduler, HeLM
    // takes the p99 TTFT on NVDRAM.
    workload::ArrivalSpec arrivals;
    arrivals.kind = workload::ArrivalKind::kUniform; // deterministic
    arrivals.rate = 0.25;
    arrivals.duration = 40.0; // 9 requests, 4 s apart
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    auto p99_ttft = [&](placement::PlacementKind scheme) {
        ServingSpec spec;
        spec.model = model::opt_config(OptVariant::kOpt175B);
        spec.memory = mem::ConfigKind::kNvdram;
        spec.placement = scheme;
        spec.compress_weights = true;
        ServingConfig policy = fixed_batch(2);
        policy.max_queue_delay = 0.5;
        auto server = Server::create(spec, policy);
        EXPECT_TRUE(server.is_ok()) << server.status().to_string();
        EXPECT_TRUE(server->submit(*stream).is_ok());
        auto report = server->serve();
        EXPECT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report->completed, stream->size());
        return report->ttft_percentile(99.0);
    };

    const double baseline = p99_ttft(placement::PlacementKind::kBaseline);
    const double helm = p99_ttft(placement::PlacementKind::kHelm);
    EXPECT_LT(helm, baseline);
}

} // namespace
} // namespace helm::runtime
