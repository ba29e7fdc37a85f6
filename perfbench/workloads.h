/**
 * @file
 * The benchmark's four workloads.  Each runs on one thread through the
 * library's public entry points:
 *
 *  - setup():   once, untimed: inputs from the seed;
 *  - prepare(): before every repetition, untimed: brings the caches to
 *               the workload's declared state and builds fresh
 *               backends, so every repetition does identical work;
 *  - body():    the timed repetition; it calls checkpoint() between
 *               the library calls of a long body, where the driver
 *               samples the host's speed (README, "Host noise");
 *  - collect(): after every repetition, untimed: reads the outputs,
 *               runs the output checks, and returns the simulated
 *               metrics and the per-layer counts.
 */
#ifndef HELM_PERFBENCH_WORKLOADS_H
#define HELM_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

/** What one repetition produced. */
struct RepOutput
{
    std::uint64_t operations = 0; //!< operations attempted
    std::uint64_t failed = 0;     //!< of those, how many failed
    double ttft_p50_s = 0.0;
    double ttft_p99_s = 0.0;
    double tbt_p50_s = 0.0;
    double throughput_tok_s = 0.0;
    double goodput_tok_s = 0.0;
    /** Every simulated output, serialized: identical inputs must give
     *  identical bytes in every repetition. */
    std::string digest;
    /** Per-layer figures read from the outputs (traced run). */
    std::map<std::string, double> layer;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup(std::uint64_t seed) = 0;
    /** @p traced: route backend calls through the timing decorator. */
    virtual void prepare(bool traced) = 0;
    virtual void body(const std::function<void()> &checkpoint) = 0;
    /** @p check: run the output checks (the driver asks on the first
     *  repetition; later ones must reproduce its digest). */
    virtual RepOutput collect(bool check, Failures &failures) = 0;
    /** Traced run only, after the loop: figures that need their own
     *  measurement (offline_plan's 2-thread sweep speed-up). */
    virtual void traced_extras(std::map<std::string, double> &) {}
};

/** The workload called @p name, or null. */
std::unique_ptr<Workload> make_workload(const std::string &name);

} // namespace perfbench

#endif // HELM_PERFBENCH_WORKLOADS_H
