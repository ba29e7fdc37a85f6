#include "probe.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <sys/mman.h>

#include "sim/simulator.h"

namespace {

// Per-thread counter slots, each on its own cache line: the timed
// bodies run on one thread, but the sweep speed-up probe fans out to a
// pool, and one shared counter would make its threads contend on every
// allocation.  Threads past the last slot share it (still exact).
struct alignas(64) Slot
{
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> events{0};
};
constexpr std::size_t kSlots = 64;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local Slot *t_slot = nullptr;

Slot &
my_slot()
{
    if (t_slot == nullptr) {
        const std::size_t i =
            g_next_slot.fetch_add(1, std::memory_order_relaxed);
        t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
    }
    return *t_slot;
}

void
count_alloc()
{
    my_slot().allocs.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
sum_slots(std::atomic<std::uint64_t> Slot::*field)
{
    std::uint64_t total = 0;
    for (const Slot &slot : g_slots)
        total += (slot.*field).load(std::memory_order_relaxed);
    return total;
}

void *
counted_alloc(std::size_t size)
{
    count_alloc();
    if (size == 0)
        size = 1;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
counted_aligned_alloc(std::size_t size, std::align_val_t align)
{
    count_alloc();
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

// ---- global operator new replacement ----------------------------------

void *operator new(std::size_t size) { return counted_alloc(size); }
void *operator new[](std::size_t size) { return counted_alloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    count_alloc();
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    count_alloc();
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return counted_aligned_alloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return counted_aligned_alloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

// ---- DES event counter: link-time wrappers (see CMakeLists.txt) -------
//
// The engine and the cluster engine drive their kernels one step() at a
// time; the gateway driver calls run() once.  Calls inside
// simulator.cc itself are not redirected, so run()'s own steps are
// counted once, through the executed-events delta.

extern "C" {
bool __real__ZN4helm3sim9Simulator4stepEv(helm::sim::Simulator *self);
void __real__ZN4helm3sim9Simulator3runEv(helm::sim::Simulator *self);

bool
__wrap__ZN4helm3sim9Simulator4stepEv(helm::sim::Simulator *self)
{
    const bool fired = __real__ZN4helm3sim9Simulator4stepEv(self);
    if (fired)
        my_slot().events.fetch_add(1, std::memory_order_relaxed);
    return fired;
}

void
__wrap__ZN4helm3sim9Simulator3runEv(helm::sim::Simulator *self)
{
    const std::uint64_t before = self->events_executed();
    __real__ZN4helm3sim9Simulator3runEv(self);
    my_slot().events.fetch_add(self->events_executed() - before,
                               std::memory_order_relaxed);
}
}

namespace perfbench {

std::uint64_t
heap_allocs()
{
    return sum_slots(&Slot::allocs);
}

std::uint64_t
des_events()
{
    return sum_slots(&Slot::events);
}

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

// The reference loop's memory: one private mapping with its own
// free-list allocator, so the loop never touches glibc's heap and its
// speed cannot depend on the heap state the simulator leaves behind.
constexpr std::size_t kRefRing = 4096;
constexpr std::size_t kRefClasses = 15;              // 16..240 bytes
constexpr std::size_t kRefArenaBytes = std::size_t(16) << 20;
/** About kReferenceSeconds per pass on the host the README describes. */
constexpr int kRefSteps = 4000000;

struct RefArena
{
    unsigned char *bump = nullptr;
    unsigned char *end = nullptr;
    void *free_list[kRefClasses] = {};
    void *ring[kRefRing] = {};
    std::uint8_t ring_class[kRefRing] = {};
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
};

void *
ref_alloc(RefArena &a, std::size_t cls)
{
    if (void *p = a.free_list[cls]) {
        a.free_list[cls] = *static_cast<void **>(p);
        return p;
    }
    const std::size_t size = (cls + 1) * 16;
    if (a.bump + size > a.end)
        throw std::bad_alloc();
    void *p = a.bump;
    a.bump += size;
    return p;
}

/** kRefSteps steps: free one ring block, allocate another of a
 *  pseudo-random size class, write to it. */
void
ref_pass(RefArena &a)
{
    for (int i = 0; i < kRefSteps; ++i) {
        a.x ^= a.x << 13;
        a.x ^= a.x >> 7;
        a.x ^= a.x << 17;
        const std::size_t slot = a.x & (kRefRing - 1);
        if (void *old = a.ring[slot]) {
            *static_cast<void **>(old) = a.free_list[a.ring_class[slot]];
            a.free_list[a.ring_class[slot]] = old;
        }
        const std::size_t cls = (a.x >> 40) % kRefClasses;
        void *p = ref_alloc(a, cls);
        static_cast<unsigned char *>(p)[8] = static_cast<unsigned char>(i);
        a.ring[slot] = p;
        a.ring_class[slot] = static_cast<std::uint8_t>(cls);
    }
}

RefArena &
ref_arena()
{
    static RefArena *arena = [] {
        // At most kRefRing live blocks of at most 240 bytes per class,
        // so the bump pointer stays under 15 * 4,096 * 240 bytes.
        void *base = mmap(nullptr, kRefArenaBytes + sizeof(RefArena),
                          PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::bad_alloc();
        auto *a = new (base) RefArena;
        a->bump = static_cast<unsigned char *>(base) + sizeof(RefArena);
        a->end = a->bump + kRefArenaBytes;
        // One untimed pass faults in the pages the loop will use.
        ref_pass(*a);
        return a;
    }();
    return *arena;
}

// Built before every other static object of the program (GCC runs
// init_priority objects first), so set-up covers the library's
// registries too.
struct StartClock
{
    double at = now_seconds();
};
__attribute__((init_priority(101))) StartClock g_start;

} // namespace

double
program_start_seconds()
{
    return g_start.at;
}

double
reference_loop_seconds()
{
    RefArena &arena = ref_arena();
    const double t0 = now_seconds();
    ref_pass(arena);
    return now_seconds() - t0;
}

SpanRecorder &
SpanRecorder::get()
{
    static SpanRecorder recorder;
    return recorder;
}

void
SpanRecorder::enable(std::size_t kept_spans)
{
    enabled_ = true;
    kept_limit_ = kept_spans;
    kept_.reserve(kept_spans);
    stack_.reserve(16);
    origin_ = now_seconds();
}

void
SpanRecorder::begin_rep(std::uint32_t rep)
{
    rep_ = rep;
    // Zero in place: keeping the map nodes means the recorder itself
    // allocates nothing inside the spans of later repetitions.
    for (auto &entry : tallies_)
        entry.second = LayerTally{};
}

void
SpanRecorder::open(const char *layer, const char *name)
{
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
    Frame frame{layer, name, next_id_++, parent, 0.0, 0, 0, 0.0, 0, 0};
    frame.allocs0 = heap_allocs();
    frame.events0 = des_events();
    frame.start = now_seconds();
    stack_.push_back(frame);
}

void
SpanRecorder::close()
{
    const double end = now_seconds();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double total = end - frame.start;
    const std::uint64_t allocs = heap_allocs() - frame.allocs0;
    const std::uint64_t events = des_events() - frame.events0;

    LayerTally &tally = tallies_[frame.layer];
    ++tally.calls;
    tally.total_s += total;
    tally.self_s += total - frame.child_s;
    tally.self_allocs += allocs - frame.child_allocs;
    tally.self_events += events - frame.child_events;
    if (!stack_.empty()) {
        Frame &parent = stack_.back();
        parent.child_s += total;
        parent.child_allocs += allocs;
        parent.child_events += events;
    }
    ++closed_;
    if (kept_.size() < kept_limit_) {
        kept_.push_back(SpanRecord{frame.id, frame.parent, rep_,
                                   frame.layer, frame.name,
                                   frame.start - origin_, end - origin_,
                                   allocs, events});
    }
}

void
SpanRecorder::write_json(std::ostream &out, const std::string &workload,
                         std::uint64_t seed) const
{
    out << "{\"schema\": \"helm-perfbench-spans-v1\", \"workload\": \""
        << workload << "\", \"seed\": " << seed
        << ", \"spans_closed\": " << closed_ << ", \"spans\": [\n";
    char buf[96];
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const SpanRecord &s = kept_[i];
        out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"rep\": " << s.rep << ", \"layer\": \"" << s.layer
            << "\", \"name\": \"" << s.name << "\", ";
        std::snprintf(buf, sizeof buf, "\"start_s\": %.9f, \"end_s\": %.9f",
                      s.start, s.end);
        out << buf << ", \"allocs\": " << s.allocs
            << ", \"des_events\": " << s.events << "}"
            << (i + 1 < kept_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

} // namespace perfbench
