/**
 * @file
 * Request-level serving over the cluster.
 *
 * ClusterServer is the multi-GPU analogue of runtime::Server and the
 * second implementation of `runtime::ServingBackend`: submit()
 * requests with arrival times, serve() once, read a report.  Mode
 * determines the dispatch structure:
 *
 *  - replica, 1 GPU:  delegates wholesale to runtime::Server — metrics
 *                     are bit-for-bit the single-GPU serve path, and
 *                     this is the only cluster shape that carries the
 *                     continuous/edf schedulers.
 *  - replica, N GPUs: a Router assigns each arrival to a per-GPU FCFS
 *                     queue; each GPU forms batches under the shared
 *                     ServingConfig and executes them on the contended
 *                     fabric (one DES timeline for all GPUs).
 *  - tensor/pipeline: one global FCFS queue; every formed batch runs
 *                     sharded across all GPUs.
 */
#ifndef HELM_CLUSTER_CLUSTER_SERVER_H
#define HELM_CLUSTER_CLUSTER_SERVER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "runtime/admission.h"
#include "runtime/backend.h"
#include "runtime/scheduler.h"
#include "telemetry/attribution.h"
#include "workload/workload.h"

namespace helm::cluster {

class ClusterServer : public runtime::ServingBackend
{
  public:
    /**
     * Validate the spec and size admission (runtime::AdmissionGeometry)
     * against the *shard* geometry: tensor shards hold 1/N of the KV
     * heads, pipeline stages bound it by the weakest stage, replicas
     * by the full model.
     */
    static Result<ClusterServer> create(ClusterSpec spec);

    using runtime::ServingBackend::submit;

    /** Queue one request (deadline rides along to the delegated
     *  single-GPU EDF scheduler). */
    Status
    submit(const workload::TimedRequest &timed) override
    {
        HELM_RETURN_IF_ERROR(runtime::validate_timed_request(timed));
        pending_.push_back(timed);
        return Status::ok();
    }

    /** Serve every submitted request to completion; the cluster-only
     *  extras (per-GPU utilization, port stats) of the underlying run
     *  are retained for serving_records()/trace_port_rate(). */
    Result<runtime::ServingReport> serve() override;

    /** Serve and keep the full cluster report (ports, per-GPU stats,
     *  records).  serve() is this with the extras dropped. */
    Result<ClusterReport> run();

    /**
     * Collect telemetry during serve(): accumulate per-batch time
     * attribution (closed to GPUs x makespan with idle) and, when
     * @p collect_records, keep per-step records in the report for trace
     * export.  Scheduling decisions are unaffected.
     */
    void enable_telemetry(bool collect_records) override;

    /** Time attribution accumulated by serve(); wall() is the makespan
     *  summed over GPUs. */
    const telemetry::TimeAttribution &attribution() const override
    {
        return attribution_;
    }

    /** Per-step records of the last serve() (telemetry with records
     *  only; run() callers read ClusterReport::records instead). */
    const std::vector<runtime::LayerStepRecord> &
    serving_records() const override
    {
        return last_records_;
    }

    /** The per-batch ceiling in force. */
    std::uint64_t effective_max_batch() const override
    {
        return single_ ? single_->effective_max_batch()
                       : admission_.max_batch();
    }
    /** Managed-KV admission slots (0 = unmanaged/unbounded). */
    std::uint64_t kv_request_slots() const override
    {
        return single_ ? single_->kv_request_slots()
                       : admission_.kv_request_slots();
    }

    /** Shared host read-port rate of the last run (delegation: the
     *  single GPU's h2d fabric rate); 0 until a run completed. */
    double trace_port_rate() const override { return trace_port_rate_; }

    /** Cluster extras of the last serve() — what ClusterReport would
     *  have carried; feed them to cluster::record_cluster. */
    const std::vector<GpuUtilization> &last_gpus() const
    {
        return last_gpus_;
    }
    const std::vector<PortStats> &last_ports() const
    {
        return last_ports_;
    }

    const ClusterSpec &spec() const { return spec_; }
    const runtime::ServingSpec &serving_spec() const override
    {
        return spec_.serving;
    }
    /** The scheduler configuration in force. */
    const runtime::ServingConfig &config() const { return spec_.config; }

  private:
    ClusterServer(ClusterSpec spec, runtime::AdmissionGeometry admission)
        : spec_(std::move(spec)), admission_(std::move(admission))
    {}

    /** The multi-GPU runs: serve the arrival-sorted, non-empty
     *  pending_ into @p out. */
    Status run_replica_cluster(ClusterReport &out, bool keep_records);
    Status run_sharded(ClusterReport &out, bool keep_records);

    ClusterSpec spec_;
    /** Multi-GPU admission (unused when delegating to single_); lives
     *  as long as the server so repeated serve() calls reuse its
     *  per-shape HBM memo. */
    runtime::AdmissionGeometry admission_;
    /** One shard per GPU (multi-GPU modes). */
    std::vector<runtime::ShardOptions> plan_;
    /** N=1 replica delegation target. */
    std::optional<runtime::Server> single_;
    std::vector<workload::TimedRequest> pending_;
    bool telemetry_ = false;
    bool collect_records_ = false;
    telemetry::TimeAttribution attribution_;
    std::vector<runtime::LayerStepRecord> last_records_;
    std::vector<GpuUtilization> last_gpus_;
    std::vector<PortStats> last_ports_;
    double trace_port_rate_ = 0.0;
};

} // namespace helm::cluster

#endif // HELM_CLUSTER_CLUSTER_SERVER_H
