#include "runtime/serving_config.h"

namespace helm::runtime {

const char *
scheduler_kind_name(SchedulerKind kind)
{
    switch (kind) {
    case SchedulerKind::kFcfs:
        return "fcfs";
    case SchedulerKind::kContinuous:
        return "continuous";
    case SchedulerKind::kEdf:
        return "edf";
    }
    return "unknown";
}

Result<SchedulerKind>
parse_scheduler_kind(const std::string &name)
{
    if (name == "fcfs")
        return SchedulerKind::kFcfs;
    if (name == "continuous")
        return SchedulerKind::kContinuous;
    if (name == "edf")
        return SchedulerKind::kEdf;
    return Status::invalid_argument(
        "unknown scheduler '" + name +
        "' (--scheduler takes fcfs | continuous | edf)");
}

Status
ServingConfig::validate() const
{
    if (!auto_max_batch && max_batch < 1) {
        return Status::invalid_argument(
            "an explicit batch ceiling must be >= 1 (--max-batch)");
    }
    if (max_queue_delay < 0.0) {
        return Status::invalid_argument(
            "the head-of-line batch-mate wait must be >= 0 "
            "(--max-queue-delay-ms)");
    }
    if (max_queue_length < 1) {
        return Status::invalid_argument(
            "the admission cap must be >= 1 (--max-queue)");
    }
    if (enforce_ttft && ttft_target <= 0.0) {
        return Status::invalid_argument(
            "an enforced TTFT target must be > 0 (--slo-ttft-ms)");
    }
    if (enforce_e2e && e2e_target <= 0.0) {
        return Status::invalid_argument(
            "an enforced end-to-end target must be > 0 (--slo-e2e-ms)");
    }
    if (tenants < 1) {
        return Status::invalid_argument(
            "the scheduler needs at least one tenant queue (--tenants)");
    }
    if (has_default_deadline && default_deadline <= 0.0) {
        return Status::invalid_argument(
            "a default deadline must be > 0 (--deadline-ms)");
    }
    if (max_preemptions < 1) {
        return Status::invalid_argument(
            "at least one preemption per request must be allowed "
            "(--max-preemptions); use --scheduler continuous to "
            "disable preemption entirely");
    }
    return Status::ok();
}

} // namespace helm::runtime
