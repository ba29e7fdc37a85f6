/**
 * @file
 * The benchmark's probes into the simulator, all kept outside the
 * library:
 *
 *  - heap_allocs(): calls of the global operator new, counted by the
 *    benchmark's own replacement of it;
 *  - des_events(): DES events fired, counted by link-time wrappers
 *    around sim::Simulator::step() and sim::Simulator::run();
 *  - Span: the traced mode's timing scope around one call the
 *    benchmark makes into a layer's public function.
 *
 * A span records its name, layer, start, end, the span open around it
 * (its cause), and the workload repetition it belongs to, plus the
 * allocation and DES-event counts at both boundaries.  A layer's self
 * time is its spans' time minus the part their child spans cover.
 * Spans stay in memory; the driver writes them out when the run ends.
 */
#ifndef HELM_PERFBENCH_PROBE_H
#define HELM_PERFBENCH_PROBE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Calls of the global operator new (all forms) so far. */
std::uint64_t heap_allocs();

/** DES events fired so far, over every Simulator in the process. */
std::uint64_t des_events();

/** Monotonic host time in seconds. */
double now_seconds();

/** now_seconds() when the program's first static object was built,
 *  before the library's own static objects: where set-up starts. */
double program_start_seconds();

/** What the reference loop takes, by definition, at the speed run_s is
 *  expressed in (README, "Host noise"). */
inline constexpr double kReferenceSeconds = 0.020;

/**
 * Time one pass of a fixed reference loop that shares no code or data
 * with the simulator: 4,000,000 steps of small-block allocate/free churn
 * over a ring of 4,096 live blocks, the allocator-bound, cache-missing
 * kind of work the simulator's hot paths do.  The blocks come from a
 * private mapping with its own free lists, not from glibc's heap.  The
 * driver runs it beside every segment of a repetition, so each
 * segment's time can be divided by the host's speed at that moment.
 */
double reference_loop_seconds();

/** What one layer did over one repetition. */
struct LayerTally
{
    std::uint64_t calls = 0;
    double self_s = 0.0;
    std::uint64_t self_allocs = 0;
    std::uint64_t self_events = 0;
    double total_s = 0.0; //!< span time including children
};

/** One finished span. */
struct SpanRecord
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0 = opened at the top level
    std::uint32_t rep = 0;
    const char *layer = "";
    const char *name = "";
    double start = 0.0; //!< seconds since the recorder started
    double end = 0.0;
    std::uint64_t allocs = 0; //!< operator new calls inside the span
    std::uint64_t events = 0; //!< DES events inside the span
};

/**
 * The traced mode's span store.  Disabled (the default) it records
 * nothing and a Span costs one branch.  Enabled, every span closes
 * into its layer's tally for the current repetition; the first
 * `kept_spans` records are kept whole for the dump.
 */
class SpanRecorder
{
  public:
    static SpanRecorder &get();

    /** Turn recording on, keeping up to @p kept_spans whole spans. */
    void enable(std::size_t kept_spans);
    /** Pause or resume recording (between repetitions only). */
    void set_active(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Start repetition @p rep: tallies restart from zero. */
    void begin_rep(std::uint32_t rep);
    const std::map<std::string, LayerTally> &tallies() const
    {
        return tallies_;
    }

    void open(const char *layer, const char *name);
    void close();

    /** Spans closed so far (kept or not). */
    std::uint64_t closed() const { return closed_; }

    /** The kept spans as one JSON document. */
    void write_json(std::ostream &out, const std::string &workload,
                    std::uint64_t seed) const;

  private:
    struct Frame
    {
        const char *layer;
        const char *name;
        std::uint32_t id;
        std::uint32_t parent;
        double start;
        std::uint64_t allocs0;
        std::uint64_t events0;
        double child_s;
        std::uint64_t child_allocs;
        std::uint64_t child_events;
    };

    bool enabled_ = false;
    std::size_t kept_limit_ = 0;
    std::uint32_t rep_ = 0;
    std::uint32_t next_id_ = 1;
    std::uint64_t closed_ = 0;
    double origin_ = 0.0;
    std::vector<Frame> stack_;
    std::vector<SpanRecord> kept_;
    std::map<std::string, LayerTally> tallies_;
};

/** RAII span around one call into @p layer. */
class Span
{
  public:
    Span(const char *layer, const char *name)
        : on_(SpanRecorder::get().enabled())
    {
        if (on_)
            SpanRecorder::get().open(layer, name);
    }
    ~Span()
    {
        if (on_)
            SpanRecorder::get().close();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool on_;
};

} // namespace perfbench

#endif // HELM_PERFBENCH_PROBE_H
