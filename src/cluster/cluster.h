/**
 * @file
 * Multi-GPU cluster simulation over shared heterogeneous host memory.
 *
 * The paper measures one A100 against one host memory tier; a real
 * server hangs several GPUs off the *same* host memory, so the host
 * device's read and write ports become shared, contended resources
 * (max-min fair across GPUs, each flow still capped at its single-
 * stream device rate).  Optane's ~19 GB/s streaming read ceiling then
 * binds cluster-wide long before the per-GPU PCIe links do — exactly
 * the Fig. 3 asymmetry, one level up.
 *
 * Three execution modes:
 *  - replica:  data parallel; every GPU serves the full model and a
 *              Router load-balances requests across per-GPU queues.
 *  - pipeline: layers partition into contiguous per-GPU stages;
 *              micro-batches pipeline through the stages with
 *              activations staged through host memory.
 *  - tensor:   every matrix weight is split 1/N; all GPUs stream their
 *              shard slice concurrently — the worst case for host
 *              read-port contention.
 */
#ifndef HELM_CLUSTER_CLUSTER_H
#define HELM_CLUSTER_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "model/transformer.h"
#include "runtime/engine.h"
#include "runtime/metrics.h"
#include "runtime/scheduler.h"
#include "runtime/serving_config.h"

namespace helm::cluster {

/** How the model is cut across the GPUs. */
enum class Parallelism
{
    kReplica,  //!< data parallel, router in front
    kPipeline, //!< layer stages, micro-batch pipelining
    kTensor,   //!< per-layer weight shards, lockstep execution
};

/** Request load-balancing policy of the replica-mode Router. */
enum class RouterPolicy
{
    kRoundRobin,        //!< cycle through the GPUs
    kJoinShortestQueue, //!< least outstanding work (ties: lowest index)
    kPowerOfTwo,        //!< sample two GPUs, pick the shorter queue
};

/** Printable names ("replica", "jsq", ...). */
const char *parallelism_name(Parallelism mode);
const char *router_policy_name(RouterPolicy policy);

/** Parse CLI spellings; kInvalidArgument on unknown values. */
Result<Parallelism> parse_parallelism(const std::string &text);
Result<RouterPolicy> parse_router_policy(const std::string &text);

/** Complete description of one cluster serving experiment. */
struct ClusterSpec
{
    /** Per-GPU template: model, memory kind, placement, KV tiers...
     *  Replica mode runs it unchanged on every GPU; tensor/pipeline
     *  re-run placement per GPU on the shard's slice. */
    runtime::ServingSpec serving;
    std::uint64_t gpus = 1;
    Parallelism parallelism = Parallelism::kReplica;
    RouterPolicy router = RouterPolicy::kRoundRobin;
    /**
     * Host memory sockets pooled behind the shared read/write ports
     * (Table I: dual socket).  The port rate is the device's single-
     * stream rate x sockets; per-GPU flows stay capped at the single-
     * stream rate.  CXL expanders are a single device — the multiplier
     * is not applied to them.
     */
    std::uint64_t sockets = 2;
    /** Pipeline mode: micro-batches in flight; 0 = one per stage. */
    std::uint64_t micro_batches = 0;
    /** Replica mode: po2 sampling seed (deterministic). */
    std::uint64_t router_seed = 0x7E57C0DEull;
    /**
     * Scheduler configuration.  Non-fcfs schedulers (continuous, edf)
     * are only valid where the cluster delegates to the single-GPU
     * Server — replica parallelism with gpus = 1; validate() rejects
     * them elsewhere (the multi-GPU fabrics model whole-batch
     * execution, and mixing fidelities would fake contention).
     */
    runtime::ServingConfig config;

    Status validate() const;
};

/** One GPU's share of a cluster run. */
struct GpuUtilization
{
    std::uint64_t gpu = 0;
    std::uint64_t batches = 0;  //!< jobs this GPU executed
    std::uint64_t requests = 0; //!< requests served (replica mode)
    Seconds compute_busy = 0.0; //!< GPU compute stream busy time
    Bytes h2d_bytes = 0;        //!< over this GPU's PCIe link
    Bytes d2h_bytes = 0;
    double utilization = 0.0;   //!< compute_busy / makespan
};

/** One shared host-memory port's aggregate traffic. */
struct PortStats
{
    std::string name; //!< "host-read", "host-write", "storage-read"
    Bandwidth rate;   //!< pooled port rate (device rate x sockets)
    Bytes bytes = 0;  //!< total bytes through the port
    double utilization = 0.0; //!< bytes / (rate x makespan)
    /** Water-fill passes where contention throttled some flow below
     *  the rate it would get alone on the port. */
    std::uint64_t throttle_events = 0;
};

/** What a cluster serving run produced. */
struct ClusterReport
{
    /** Request-level metrics, identical schema to runtime::Server's —
     *  at gpus=1 / replica this IS the single-GPU Server report. */
    runtime::ServingReport serving;
    std::vector<GpuUtilization> gpus;
    std::vector<PortStats> ports;
    /** Per-step records with gpu_index set (chrome trace); replica
     *  delegation at N=1 keeps this empty like Server does. */
    std::vector<runtime::LayerStepRecord> records;
};

/** Closed-loop (saturation) run: every GPU busy end to end. */
struct SaturationResult
{
    double aggregate_throughput = 0.0; //!< generated tokens/s, cluster
    std::uint64_t total_tokens = 0;
    Seconds makespan = 0.0;
    Seconds ttft = 0.0; //!< cluster TTFT (cold batch discarded)
    Seconds tbt = 0.0;  //!< cluster mean time between tokens
    std::vector<GpuUtilization> gpus;
    std::vector<PortStats> ports;
    std::vector<runtime::LayerStepRecord> records;
};

/**
 * Partition @p layers into @p stages contiguous ranges balanced by
 * stored weight bytes (greedy fill to the mean).  Every stage is
 * non-empty; kInvalidArgument when stages > layers.
 * Returns [begin, end) pairs.
 */
Result<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
partition_layers(const std::vector<model::LayerSpec> &layers,
                 std::uint64_t stages);

} // namespace helm::cluster

#endif // HELM_CLUSTER_CLUSTER_H
