/**
 * @file
 * Unit + integration tests for the multi-GPU cluster subsystem:
 * spec parsing/validation, layer partitioning, the replica Router,
 * single-GPU degeneracy (the N=1 cluster must reproduce the
 * single-GPU engine and Server bit-for-bit), shared-port saturation
 * scaling, and the sharded execution modes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cluster/cluster_engine.h"
#include "cluster/cluster_server.h"
#include "cluster/router.h"
#include "model/opt.h"
#include "runtime/engine.h"
#include "runtime/schedule.h"
#include "workload/arrival.h"

namespace helm::cluster {
namespace {

using model::OptVariant;

runtime::ServingSpec
small_spec(mem::ConfigKind memory = mem::ConfigKind::kNvdram)
{
    runtime::ServingSpec spec;
    spec.model = model::opt_config(OptVariant::kOpt1_3B);
    spec.memory = memory;
    spec.placement = placement::PlacementKind::kAllCpu;
    spec.keep_records = false;
    return spec;
}

ClusterSpec
cluster_spec(std::uint64_t gpus, Parallelism mode,
             mem::ConfigKind memory = mem::ConfigKind::kNvdram)
{
    ClusterSpec spec;
    spec.serving = small_spec(memory);
    spec.gpus = gpus;
    spec.parallelism = mode;
    return spec;
}

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

// ---- Parsing / naming -------------------------------------------------

TEST(ClusterSpecTest, ParseRoundTrips)
{
    EXPECT_EQ(*parse_parallelism("replica"), Parallelism::kReplica);
    EXPECT_EQ(*parse_parallelism("data"), Parallelism::kReplica);
    EXPECT_EQ(*parse_parallelism("pipeline"), Parallelism::kPipeline);
    EXPECT_EQ(*parse_parallelism("pp"), Parallelism::kPipeline);
    EXPECT_EQ(*parse_parallelism("tensor"), Parallelism::kTensor);
    EXPECT_EQ(*parse_parallelism("tp"), Parallelism::kTensor);
    EXPECT_EQ(parse_parallelism("bogus").status().code(),
              StatusCode::kInvalidArgument);

    EXPECT_EQ(*parse_router_policy("rr"), RouterPolicy::kRoundRobin);
    EXPECT_EQ(*parse_router_policy("jsq"),
              RouterPolicy::kJoinShortestQueue);
    EXPECT_EQ(*parse_router_policy("po2"), RouterPolicy::kPowerOfTwo);
    EXPECT_EQ(parse_router_policy("lifo").status().code(),
              StatusCode::kInvalidArgument);

    EXPECT_STREQ(parallelism_name(Parallelism::kTensor), "tensor");
    EXPECT_STREQ(router_policy_name(RouterPolicy::kPowerOfTwo), "po2");
}

TEST(ClusterSpecTest, ValidateRejectsBadShapes)
{
    ClusterSpec zero = cluster_spec(0, Parallelism::kReplica);
    EXPECT_EQ(zero.validate().code(), StatusCode::kInvalidArgument);

    ClusterSpec many = cluster_spec(65, Parallelism::kReplica);
    EXPECT_EQ(many.validate().code(), StatusCode::kInvalidArgument);

    ClusterSpec no_sockets = cluster_spec(2, Parallelism::kReplica);
    no_sockets.sockets = 0;
    EXPECT_EQ(no_sockets.validate().code(),
              StatusCode::kInvalidArgument);

    // More pipeline stages than model layers cannot partition.
    ClusterSpec deep = cluster_spec(64, Parallelism::kPipeline);
    deep.serving.model.blocks = 1; // num_layers() = 4 < 64 stages
    EXPECT_EQ(deep.validate().code(), StatusCode::kInvalidArgument);

    EXPECT_TRUE(cluster_spec(4, Parallelism::kTensor).validate().is_ok());
}

TEST(ClusterSpecTest, IterationSchedulersNeedTheSingleGpuPath)
{
    runtime::ServingConfig edf;
    edf.scheduler = runtime::SchedulerKind::kEdf;

    ClusterSpec two = cluster_spec(2, Parallelism::kReplica);
    two.config = edf;
    const Status rejected = two.validate();
    EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.to_string().find("--scheduler"),
              std::string::npos);
    EXPECT_NE(rejected.to_string().find("edf"), std::string::npos);

    ClusterSpec sharded = cluster_spec(1, Parallelism::kTensor);
    sharded.config = edf;
    EXPECT_EQ(sharded.validate().code(), StatusCode::kInvalidArgument);

    ClusterSpec ok = cluster_spec(1, Parallelism::kReplica);
    ok.config = edf;
    EXPECT_TRUE(ok.validate().is_ok());

    // The fcfs config keeps every multi-GPU mode available.
    ClusterSpec fcfs = cluster_spec(4, Parallelism::kTensor);
    fcfs.config = runtime::ServingConfig{};
    EXPECT_TRUE(fcfs.validate().is_ok());
}

TEST(ClusterDegeneracy, EdfClusterMatchesServerThroughTheBackendSeam)
{
    // The one-GPU replica cluster must reproduce Server under the
    // iteration-level schedulers too, preemptions included.
    runtime::ServingConfig edf;
    edf.scheduler = runtime::SchedulerKind::kEdf;
    edf.auto_max_batch = false;
    edf.max_batch = 2;
    edf.tenants = 2;

    std::vector<workload::TimedRequest> stream;
    const auto add = [&stream](double at, std::uint64_t prompt,
                               std::uint64_t output,
                               std::uint64_t tenant, double deadline) {
        workload::TimedRequest timed;
        timed.request = workload::Request{
            static_cast<std::uint64_t>(stream.size()), prompt, output,
            tenant};
        timed.arrival = at;
        timed.deadline = deadline;
        stream.push_back(timed);
    };
    add(0.0, 256, 64, 0, 1000.0);
    add(0.0, 256, 64, 0, 1000.0);
    add(0.1, 256, 64, 0, 1000.0);
    add(5.0, 64, 8, 1, 9.0);

    auto server = runtime::Server::create(small_spec(), edf);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    ASSERT_TRUE(server->submit(stream).is_ok());
    const auto want = server->serve();
    ASSERT_TRUE(want.is_ok());

    ClusterSpec spec = cluster_spec(1, Parallelism::kReplica);
    spec.config = edf;
    auto cluster = ClusterServer::create(spec);
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    ASSERT_TRUE(cluster->submit(stream).is_ok());
    const auto got = cluster->serve();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();

    EXPECT_GE(want->preemptions, 1u);
    EXPECT_EQ(got->preemptions, want->preemptions);
    EXPECT_EQ(got->resumes, want->resumes);
    EXPECT_EQ(got->kv_demoted_bytes, want->kv_demoted_bytes);
    EXPECT_EQ(got->kv_promoted_bytes, want->kv_promoted_bytes);
    EXPECT_EQ(got->iterations, want->iterations);
    EXPECT_EQ(got->completed, want->completed);
    EXPECT_EQ(got->makespan, want->makespan);
    EXPECT_EQ(got->total_tokens, want->total_tokens);
}

// ---- Layer partitioning ----------------------------------------------

TEST(PartitionLayersTest, CoversAllLayersContiguously)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt13B), model::DataType::kFp16);
    for (std::uint64_t stages : {1u, 2u, 3u, 4u, 7u}) {
        auto ranges = partition_layers(layers, stages);
        ASSERT_TRUE(ranges.is_ok());
        ASSERT_EQ(ranges->size(), stages);
        EXPECT_EQ(ranges->front().first, 0u);
        EXPECT_EQ(ranges->back().second, layers.size());
        for (std::size_t s = 0; s < stages; ++s) {
            EXPECT_LT((*ranges)[s].first, (*ranges)[s].second);
            if (s > 0) {
                EXPECT_EQ((*ranges)[s].first, (*ranges)[s - 1].second);
            }
        }
    }
}

TEST(PartitionLayersTest, BalancesStoredBytes)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt13B), model::DataType::kFp16);
    auto ranges = partition_layers(layers, 4);
    ASSERT_TRUE(ranges.is_ok());
    std::vector<double> stage_bytes(4, 0.0);
    double total = 0.0;
    for (std::size_t s = 0; s < 4; ++s) {
        for (auto l = (*ranges)[s].first; l < (*ranges)[s].second; ++l) {
            for (const auto &w : layers[l].weights)
                stage_bytes[s] += static_cast<double>(w.bytes());
        }
        total += stage_bytes[s];
    }
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_GT(stage_bytes[s], 0.10 * total / 4.0);
        EXPECT_LT(stage_bytes[s], 2.50 * total / 4.0);
    }
}

TEST(PartitionLayersTest, MoreStagesThanLayersFails)
{
    const auto layers = model::build_layers(
        model::opt_config(OptVariant::kOpt1_3B), model::DataType::kFp16);
    EXPECT_EQ(partition_layers(layers, layers.size() + 1).status().code(),
              StatusCode::kInvalidArgument);
}

// ---- Router -----------------------------------------------------------

TEST(RouterTest, RoundRobinCycles)
{
    Router router(RouterPolicy::kRoundRobin, 3, 1);
    const std::vector<std::uint64_t> depths{5, 0, 9};
    EXPECT_EQ(router.route(depths), 0u);
    EXPECT_EQ(router.route(depths), 1u);
    EXPECT_EQ(router.route(depths), 2u);
    EXPECT_EQ(router.route(depths), 0u);
}

TEST(RouterTest, JsqPicksLeastLoadedLowestIndex)
{
    Router router(RouterPolicy::kJoinShortestQueue, 4, 1);
    EXPECT_EQ(router.route({3, 1, 1, 2}), 1u); // tie -> lowest index
    EXPECT_EQ(router.route({0, 1, 1, 2}), 0u);
}

TEST(RouterTest, PowerOfTwoIsDeterministicAndNeverPicksDeeperGpu)
{
    Router a(RouterPolicy::kPowerOfTwo, 8, 42);
    Router b(RouterPolicy::kPowerOfTwo, 8, 42);
    std::vector<std::uint64_t> depths{9, 3, 7, 1, 8, 2, 6, 4};
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t choice = a.route(depths);
        EXPECT_EQ(choice, b.route(depths)); // same seed, same stream
        ASSERT_LT(choice, depths.size());
        depths[choice]++;
    }
    // Sampling two GPUs and keeping the shallower one must beat
    // blind uniform assignment: the deepest queue cannot run away.
    const auto minmax = std::minmax_element(depths.begin(), depths.end());
    EXPECT_LE(*minmax.second - *minmax.first, 10u);
}

TEST(RouterTest, SingleGpuAlwaysZero)
{
    Router router(RouterPolicy::kPowerOfTwo, 1, 7);
    EXPECT_EQ(router.route({123}), 0u);
}

// ---- Single-GPU degeneracy -------------------------------------------

TEST(ClusterDegeneracy, SaturatedReplicaOneGpuMatchesEngineExactly)
{
    for (const auto memory :
         {mem::ConfigKind::kNvdram, mem::ConfigKind::kDram}) {
        runtime::ServingSpec spec = small_spec(memory);
        spec.batch = 4;
        spec.repeats = 2;
        auto single = runtime::simulate_inference(spec);
        ASSERT_TRUE(single.is_ok()) << single.status().to_string();

        ClusterSpec cs;
        cs.serving = spec;
        cs.gpus = 1;
        cs.parallelism = Parallelism::kReplica;
        auto clustered = run_saturated(cs);
        ASSERT_TRUE(clustered.is_ok()) << clustered.status().to_string();

        // Shared ports have slack at N=1, so the DES timings must be
        // bit-for-bit the single-GPU engine's.
        EXPECT_EQ(clustered->ttft, single->metrics.ttft)
            << mem::config_kind_name(memory);
        EXPECT_EQ(clustered->tbt, single->metrics.tbt);
        EXPECT_EQ(clustered->makespan, single->metrics.total_time);
        EXPECT_EQ(clustered->total_tokens, single->metrics.total_tokens);
        EXPECT_EQ(clustered->aggregate_throughput,
                  single->metrics.throughput);
    }
}

TEST(ClusterDegeneracy, ServerDelegationIsFieldExact)
{
    auto server = runtime::Server::create(small_spec());
    ASSERT_TRUE(server.is_ok());
    ASSERT_TRUE(server->submit(burst(12, 0.0)).is_ok());
    auto want = server->serve();
    ASSERT_TRUE(want.is_ok());

    auto cluster =
        ClusterServer::create(cluster_spec(1, Parallelism::kReplica));
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    EXPECT_EQ(cluster->effective_max_batch(),
              server->effective_max_batch());
    ASSERT_TRUE(cluster->submit(burst(12, 0.0)).is_ok());
    auto got = cluster->run();
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();

    const runtime::ServingReport &a = *want;
    const runtime::ServingReport &b = got->serving;
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.batches_formed, b.batches_formed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.total_tokens, b.total_tokens);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].id, b.requests[i].id);
        EXPECT_EQ(a.requests[i].ttft, b.requests[i].ttft);
        EXPECT_EQ(a.requests[i].tbt, b.requests[i].tbt);
        EXPECT_EQ(a.requests[i].e2e_latency, b.requests[i].e2e_latency);
        EXPECT_EQ(a.requests[i].queueing_delay,
                  b.requests[i].queueing_delay);
    }
    ASSERT_EQ(got->gpus.size(), 1u);
    EXPECT_EQ(got->gpus[0].requests, b.completed);
}

// ---- Shared-port contention ------------------------------------------

TEST(ClusterScaling, DramScalesNearLinearlyNvdramSaturates)
{
    auto throughput = [](mem::ConfigKind memory, std::uint64_t gpus) {
        ClusterSpec spec = cluster_spec(gpus, Parallelism::kReplica,
                                        memory);
        spec.serving.batch = 4;
        spec.serving.repeats = 2;
        auto result = run_saturated(spec);
        EXPECT_TRUE(result.is_ok()) << result.status().to_string();
        return result->aggregate_throughput;
    };

    const double dram1 = throughput(mem::ConfigKind::kDram, 1);
    const double dram4 = throughput(mem::ConfigKind::kDram, 4);
    const double nv1 = throughput(mem::ConfigKind::kNvdram, 1);
    const double nv4 = throughput(mem::ConfigKind::kNvdram, 4);

    // DRAM's pooled read port has headroom for 4 PCIe links; Optane's
    // streaming ceiling binds cluster-wide (Fig. 3, one level up).
    EXPECT_GT(dram4, 3.3 * dram1);
    EXPECT_LT(nv4, 3.0 * nv1);
    EXPECT_GT(nv4, 1.5 * nv1); // contended, not serialized
    EXPECT_LT(nv4 / nv1, dram4 / dram1);
}

TEST(ClusterScaling, PortUtilizationReportsSaturation)
{
    ClusterSpec spec = cluster_spec(4, Parallelism::kReplica);
    spec.serving.batch = 4;
    auto result = run_saturated(spec);
    ASSERT_TRUE(result.is_ok());
    const auto read = std::find_if(
        result->ports.begin(), result->ports.end(),
        [](const PortStats &p) { return p.name == "host-read"; });
    ASSERT_NE(read, result->ports.end());
    EXPECT_GT(read->utilization, 0.80); // the binding resource
    EXPECT_LE(read->utilization, 1.0 + 1e-9);
    ASSERT_EQ(result->gpus.size(), 4u);
    for (const GpuUtilization &g : result->gpus) {
        EXPECT_GT(g.h2d_bytes, 0u);
        EXPECT_GT(g.compute_busy, 0.0);
    }
}

// ---- Sharded modes ----------------------------------------------------

TEST(ClusterSharded, TensorModeSplitsTrafficAndCompletes)
{
    ClusterSpec spec = cluster_spec(2, Parallelism::kTensor);
    spec.serving.batch = 4;
    spec.serving.repeats = 2;
    auto sharded = run_saturated(spec, /*keep_records=*/true);
    ASSERT_TRUE(sharded.is_ok()) << sharded.status().to_string();

    runtime::ServingSpec single = small_spec();
    single.batch = 4;
    single.repeats = 2;
    auto base = runtime::simulate_inference(single);
    ASSERT_TRUE(base.is_ok());

    EXPECT_EQ(sharded->total_tokens, base->metrics.total_tokens);
    EXPECT_GT(sharded->makespan, 0.0);
    // Each GPU streams roughly half the weights; strictly less than
    // the whole model's traffic, and both links carry traffic.
    ASSERT_EQ(sharded->gpus.size(), 2u);
    for (const GpuUtilization &g : sharded->gpus) {
        EXPECT_GT(g.h2d_bytes, 0u);
        EXPECT_LT(g.h2d_bytes, base->metrics.total_tokens * kGB); // sane
    }
    std::set<std::uint64_t> gpu_rows;
    for (const auto &rec : sharded->records)
        gpu_rows.insert(rec.gpu_index);
    EXPECT_EQ(gpu_rows.size(), 2u);
}

TEST(ClusterSharded, PipelineModeCompletesAllTokens)
{
    ClusterSpec spec = cluster_spec(2, Parallelism::kPipeline);
    spec.serving.batch = 4;
    spec.serving.repeats = 1;
    auto result = run_saturated(spec, /*keep_records=*/true);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->total_tokens,
              4 * spec.serving.shape.output_tokens);
    EXPECT_GT(result->ttft, 0.0);
    EXPECT_GT(result->tbt, 0.0);
    std::set<std::uint64_t> gpu_rows;
    for (const auto &rec : result->records)
        gpu_rows.insert(rec.gpu_index);
    EXPECT_EQ(gpu_rows.size(), 2u);
}

// ---- Replica serving across GPUs -------------------------------------

TEST(ClusterServing, ReplicaClusterServesBurstAcrossGpus)
{
    for (const auto policy :
         {RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
          RouterPolicy::kPowerOfTwo}) {
        ClusterSpec spec = cluster_spec(2, Parallelism::kReplica);
        spec.router = policy;
        auto cluster = ClusterServer::create(spec);
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
        ASSERT_TRUE(cluster->submit(burst(16, 0.0)).is_ok());
        auto report = cluster->run();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report->serving.completed, 16u);
        EXPECT_EQ(report->serving.rejected, 0u);
        EXPECT_GT(report->serving.throughput, 0.0);
        ASSERT_EQ(report->gpus.size(), 2u);
        std::uint64_t served = 0;
        for (const GpuUtilization &g : report->gpus) {
            EXPECT_GT(g.requests, 0u)
                << "router " << router_policy_name(policy)
                << " starved GPU " << g.gpu;
            served += g.requests;
        }
        EXPECT_EQ(served, 16u);
    }
}

TEST(ClusterServing, TwoReplicasBeatOneUnderLoad)
{
    auto serve = [](std::uint64_t gpus) {
        ClusterSpec spec = cluster_spec(gpus, Parallelism::kReplica);
        auto cluster = ClusterServer::create(spec);
        EXPECT_TRUE(cluster.is_ok());
        EXPECT_TRUE(cluster->submit(burst(24, 0.0)).is_ok());
        auto report = cluster->run();
        EXPECT_TRUE(report.is_ok());
        return report->serving;
    };
    const runtime::ServingReport one = serve(1);
    const runtime::ServingReport two = serve(2);
    EXPECT_EQ(two.completed, one.completed);
    EXPECT_LT(two.makespan, one.makespan);
    EXPECT_GT(two.throughput, one.throughput);
}

TEST(ClusterServing, ShardedServingReportsRequests)
{
    ClusterSpec spec = cluster_spec(2, Parallelism::kTensor);
    auto cluster = ClusterServer::create(spec);
    ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
    ASSERT_TRUE(cluster->submit(burst(8, 0.0)).is_ok());
    auto report = cluster->run();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report->serving.completed, 8u);
    EXPECT_GT(report->serving.throughput, 0.0);
    for (const auto &r : report->serving.requests) {
        EXPECT_GT(r.ttft, 0.0);
        EXPECT_GE(r.e2e_latency, r.ttft);
    }
    ASSERT_EQ(report->gpus.size(), 2u);
    EXPECT_GT(report->gpus[0].utilization, 0.0);
    ASSERT_FALSE(report->ports.empty());
}

/** OPT-30B int4, All-CPU on NVDRAM: the paper's throughput setup. */
ClusterSpec
opt30b_cluster(Parallelism mode)
{
    ClusterSpec spec;
    spec.serving.model = model::opt_config(OptVariant::kOpt30B);
    spec.serving.memory = mem::ConfigKind::kNvdram;
    spec.serving.placement = placement::PlacementKind::kAllCpu;
    spec.serving.compress_weights = true;
    spec.gpus = 2;
    spec.parallelism = mode;
    return spec;
}

/** The GPU slices @p spec's batches compile on, one per GPU. */
std::vector<runtime::ShardOptions>
gpu_slices(const ClusterSpec &spec)
{
    std::vector<runtime::ShardOptions> slices(spec.gpus);
    if (spec.parallelism != Parallelism::kPipeline)
        return slices; // replicas run the whole model
    const auto ranges = partition_layers(
        model::build_layers(spec.serving.model,
                            model::DataType::kInt4Grouped),
        spec.gpus);
    EXPECT_TRUE(ranges.is_ok());
    for (std::uint64_t g = 0; g < spec.gpus; ++g) {
        slices[g].kind = runtime::ShardOptions::Kind::kPipeline;
        slices[g].count = spec.gpus;
        slices[g].index = g;
        slices[g].layer_begin = (*ranges)[g].first;
        slices[g].layer_end = (*ranges)[g].second;
    }
    return slices;
}

/** Whether @p batch requests of (@p prompt, @p output) compile on
 *  every GPU slice of @p spec. */
bool
compiles_everywhere(const ClusterSpec &spec, std::uint64_t batch,
                    std::uint64_t prompt, std::uint64_t output)
{
    runtime::ServingSpec serving = spec.serving;
    serving.batch = batch;
    serving.shape.prompt_tokens = prompt;
    serving.shape.output_tokens = output;
    for (const runtime::ShardOptions &slice : gpu_slices(spec)) {
        if (!runtime::compile_schedule(serving, slice).is_ok())
            return false;
    }
    return true;
}

TEST(ClusterServing, MultiGpuFcfsBoundsVariableLengthsByHbm)
{
    // C4-like prompt lengths at a high rate: the longest prompts do
    // not fit HBM even alone, and long ones cap how many batch-mates
    // fit.  Every shard must only ever see batches it can compile.
    workload::ArrivalSpec arrivals;
    arrivals.rate = 4.0;
    arrivals.duration = 600.0;
    arrivals.seed = 7;
    arrivals.variable_lengths = true;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());

    for (Parallelism mode :
         {Parallelism::kReplica, Parallelism::kPipeline}) {
        SCOPED_TRACE(parallelism_name(mode));
        ClusterSpec spec = opt30b_cluster(mode);
        // No queue shedding, so every request either completes or is
        // shed by admission.
        spec.config.max_queue_length = 1u << 20;
        auto cluster = ClusterServer::create(spec);
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
        ASSERT_TRUE(cluster->submit(*stream).is_ok());
        const auto report = cluster->serve();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();

        // A request is shed by the HBM bound iff it fits no batch on
        // its own.  Fit is monotone in the shape, so when the largest
        // prompt and output fit together, every request fits alone.
        std::uint64_t max_prompt = 0, max_output = 0;
        for (const workload::TimedRequest &timed : *stream) {
            max_prompt = std::max(max_prompt, timed.request.prompt_tokens);
            max_output = std::max(max_output, timed.request.output_tokens);
        }
        std::uint64_t alone_misfits = 0;
        if (!compiles_everywhere(spec, 1, max_prompt, max_output)) {
            for (const workload::TimedRequest &timed : *stream) {
                alone_misfits += compiles_everywhere(
                                     spec, 1, timed.request.prompt_tokens,
                                     timed.request.output_tokens)
                                     ? 0
                                     : 1;
            }
        }
        EXPECT_EQ(report->hbm_rejected, alone_misfits);
        EXPECT_EQ(report->rejected, report->hbm_rejected);
        EXPECT_EQ(report->completed + report->rejected, stream->size());

        // The largest batch the bound admitted compiles on every shard.
        std::map<std::uint64_t, std::vector<runtime::RequestMetrics>>
            batches;
        for (const runtime::RequestMetrics &r : report->requests)
            batches[r.batch_index].push_back(r);
        std::uint64_t size = 0, prompt = 0, output = 0;
        for (const auto &[index, members] : batches) {
            if (members.size() <= size)
                continue;
            size = members.size();
            prompt = output = 0;
            for (const runtime::RequestMetrics &r : members) {
                prompt = std::max(prompt, r.prompt_tokens);
                output = std::max(output, r.output_tokens);
            }
        }
        EXPECT_GT(size, 1u);
        EXPECT_TRUE(compiles_everywhere(spec, size, prompt, output));
    }
}

TEST(ClusterServing, MultiGpuFcfsKeepsTenantAndDeadline)
{
    workload::ArrivalSpec arrivals;
    arrivals.rate = 1.0;
    arrivals.duration = 60.0;
    arrivals.seed = 3;
    arrivals.tenants = 2;
    arrivals.deadline = 5.0;
    const auto stream = workload::generate_arrivals(arrivals);
    ASSERT_TRUE(stream.is_ok());
    std::map<std::uint64_t, workload::TimedRequest> submitted;
    for (const workload::TimedRequest &timed : *stream)
        submitted[timed.request.id] = timed;

    for (Parallelism mode :
         {Parallelism::kReplica, Parallelism::kPipeline}) {
        SCOPED_TRACE(parallelism_name(mode));
        auto cluster = ClusterServer::create(opt30b_cluster(mode));
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
        ASSERT_TRUE(cluster->submit(*stream).is_ok());
        const auto report = cluster->serve();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        ASSERT_EQ(report->completed, stream->size());

        std::uint64_t tenant_one = 0, missed = 0;
        for (const runtime::RequestMetrics &r : report->requests) {
            const workload::TimedRequest &timed = submitted.at(r.id);
            EXPECT_EQ(r.tenant, timed.request.tenant);
            EXPECT_EQ(r.deadline, timed.deadline);
            EXPECT_EQ(r.deadline_met,
                      r.deadline == 0.0 ||
                          r.arrival + r.e2e_latency <= r.deadline);
            tenant_one += r.tenant == 1 ? 1 : 0;
            missed += r.deadline_met ? 0 : 1;
        }
        EXPECT_GT(tenant_one, 0u);
        EXPECT_GT(missed, 0u);
    }
}

TEST(ClusterServing, EverythingShedLeavesAnEmptyMakespan)
{
    // Three prompts no GPU slice can hold even alone.
    std::vector<workload::TimedRequest> stream;
    for (std::uint64_t i = 0; i < 3; ++i) {
        stream.push_back(workload::TimedRequest{
            workload::Request{i, 400000, 21}, 5.0 + static_cast<double>(i)});
    }
    for (Parallelism mode :
         {Parallelism::kReplica, Parallelism::kPipeline}) {
        SCOPED_TRACE(parallelism_name(mode));
        auto cluster = ClusterServer::create(opt30b_cluster(mode));
        ASSERT_TRUE(cluster.is_ok()) << cluster.status().to_string();
        cluster->enable_telemetry(false);
        ASSERT_TRUE(cluster->submit(stream).is_ok());
        const auto report = cluster->serve();
        ASSERT_TRUE(report.is_ok()) << report.status().to_string();
        EXPECT_EQ(report->hbm_rejected, 3u);
        EXPECT_EQ(report->completed, 0u);
        EXPECT_EQ(report->makespan, 0.0);
        EXPECT_EQ(cluster->attribution().wall(), 0.0);
    }
}

} // namespace
} // namespace helm::cluster
