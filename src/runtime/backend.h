/**
 * @file
 * ServingBackend — the one seam every request-level front end drives.
 *
 * `runtime::Server` (single GPU) and `cluster::ClusterServer` (multi
 * GPU) grew the same surface independently: submit requests with
 * arrival times, run once, read a ServingReport, pull telemetry.
 * helmsim's serve and cluster subcommands, and every serving bench,
 * duplicated the call sites.  This interface extracts the common
 * shape so callers hold a `ServingBackend &` and stop caring which
 * implementation sits behind it.  Both size admission and form FCFS
 * batches through runtime/admission.h, so effective_max_batch() and
 * kv_request_slots() mean the same on either; `ClusterServer::run()`
 * additionally returns the cluster extras (per-GPU and port stats).
 */
#ifndef HELM_RUNTIME_BACKEND_H
#define HELM_RUNTIME_BACKEND_H

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "workload/arrival.h"
#include "workload/workload.h"

namespace helm::telemetry {
class TimeAttribution;
}

namespace helm::runtime {

struct LayerStepRecord;
struct ServingReport;
struct ServingSpec;

/** Abstract request-level serving engine: create/submit/serve/report. */
class ServingBackend
{
  public:
    virtual ~ServingBackend() = default;

    /** Queue one request with its arrival time (and deadline). */
    virtual Status submit(const workload::TimedRequest &timed) = 0;

    /** Queue one request; @p arrival must not precede earlier submits. */
    Status
    submit(const workload::Request &request, Seconds arrival)
    {
        workload::TimedRequest timed;
        timed.request = request;
        timed.arrival = arrival;
        return submit(timed);
    }

    /** Queue a whole arrival stream. */
    Status
    submit(const std::vector<workload::TimedRequest> &stream)
    {
        for (const auto &timed : stream)
            HELM_RETURN_IF_ERROR(submit(timed));
        return Status::ok();
    }

    /** Serve every submitted request to completion and clear the
     *  queue; one report schema for every backend. */
    virtual Result<ServingReport> serve() = 0;

    /** Collect time attribution (and per-step records for trace
     *  export when @p collect_records) during serve(); scheduling
     *  decisions and the report are unaffected. */
    virtual void enable_telemetry(bool collect_records) = 0;

    /** Time attribution accumulated by serve(). */
    virtual const telemetry::TimeAttribution &attribution() const = 0;

    /** Per-step records of the served batches, in serving time
     *  (enable_telemetry(true) only; empty otherwise). */
    virtual const std::vector<LayerStepRecord> &
    serving_records() const = 0;

    /** The batch ceiling in force (auto-sized when the config said
     *  so). */
    virtual std::uint64_t effective_max_batch() const = 0;

    /** Managed-KV admission slots (0 = unmanaged/unbounded). */
    virtual std::uint64_t kv_request_slots() const = 0;

    /** The host-port rate (bytes/s) the backend's chrome-trace
     *  utilization counters are scaled by; 0 until serve() ran. */
    virtual double trace_port_rate() const = 0;

    /** The per-GPU template spec the backend runs. */
    virtual const ServingSpec &serving_spec() const = 0;
};

} // namespace helm::runtime

#endif // HELM_RUNTIME_BACKEND_H
