#include "trace.hh"

#include <atomic>
#include <cstdio>
#include <mutex>

#include "common.hh"
#include "explore/dpor.hh"
#include "fuzz/coverage.hh"
#include "obs/metrics.hh"
#include "race/detector.hh"
#include "race/sharded.hh"
#include "waitgraph/waitgraph.hh"

namespace perfbench::trace
{

namespace
{

/** Spans kept per thread; later ones are counted, not stored. */
constexpr size_t kMaxSpansPerThread = 1 << 16;

struct Span
{
    uint64_t id;
    uint64_t parent;
    int64_t start;
    int64_t end;
    uint32_t op;
    SpanKind kind;
};

struct Frame
{
    uint64_t id;
    uint64_t parent;
    int64_t start;
    int64_t childNs;
    uint32_t op;
    SpanKind kind;
};

struct ThreadState
{
    uint64_t index = 0;
    uint64_t nextSpan = 0;
    uint64_t dropped = 0;
    std::vector<Span> spans;
    std::vector<Frame> stack;
    Totals totals;
    golite::obs::MetricsSink metrics;
};

std::atomic<bool> gEnabled{false};
std::mutex gRegistryMu;
std::vector<std::unique_ptr<ThreadState>> gRegistry; // guarded by mu

ThreadState &
self()
{
    thread_local ThreadState *tl = nullptr;
    if (tl == nullptr) {
        std::lock_guard<std::mutex> lock(gRegistryMu);
        gRegistry.push_back(std::make_unique<ThreadState>());
        tl = gRegistry.back().get();
        tl->index = gRegistry.size();
    }
    return *tl;
}

SubKind
classify(golite::Subscriber *s)
{
    if (dynamic_cast<golite::race::Detector *>(s) != nullptr)
        return SubKind::Race;
    if (dynamic_cast<golite::race::Sharded *>(s) != nullptr)
        return SubKind::Sharded;
    if (dynamic_cast<golite::waitgraph::Detector *>(s) != nullptr)
        return SubKind::Waitgraph;
    if (dynamic_cast<golite::fuzz::AccessCoverage *>(s) != nullptr ||
        dynamic_cast<golite::fuzz::BlockingCoverage *>(s) != nullptr)
        return SubKind::FuzzProbe;
    if (dynamic_cast<golite::explore::DependenceOracle *>(s) != nullptr)
        return SubKind::Oracle;
    return SubKind::Other;
}

/** Forwards every Subscriber call to @p inner, timing the two
 *  delivery hooks into the calling thread's accumulators. */
class TimedSubscriber final : public golite::Subscriber
{
  public:
    explicit TimedSubscriber(golite::Subscriber *inner)
        : inner_(inner), slot_(static_cast<size_t>(classify(inner)))
    {
    }

    golite::EventMask
    eventMask() const override
    {
        return inner_->eventMask();
    }

    void
    onEvent(const golite::RuntimeEvent &ev) override
    {
        const int64_t t0 = nowNs();
        inner_->onEvent(ev);
        const int64_t t1 = nowNs();
        CallStat &c = self().totals.calls[slot_];
        c.events++;
        c.eventNs += t1 - t0;
    }

    void
    onMemAccess(const void *addr, const char *label, uint64_t gid,
                bool is_write) override
    {
        const int64_t t0 = nowNs();
        inner_->onMemAccess(addr, label, gid, is_write);
        const int64_t t1 = nowNs();
        CallStat &c = self().totals.calls[slot_];
        c.accesses++;
        c.accessNs += t1 - t0;
    }

    bool parallelSafe() const override { return inner_->parallelSafe(); }

    std::vector<std::string>
    drainReports() override
    {
        return inner_->drainReports();
    }

    void
    finalizeRun(golite::RunReport &report) override
    {
        inner_->finalizeRun(report);
    }

  private:
    golite::Subscriber *inner_;
    size_t slot_;
};

} // namespace

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Op:
        return "op";
    case SpanKind::FuzzRun:
        return "fuzz.fuzzRun";
    case SpanKind::ExploreAll:
        return "explore.exploreAll";
    case SpanKind::Run:
        return "runtime.run";
    case SpanKind::RunJobs:
        return "parallel.runJobs";
    case SpanKind::RunParallel:
        return "parallel.runParallel";
    case SpanKind::Count:
        break;
    }
    return "?";
}

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

uint64_t
currentSpan()
{
    ThreadState &ts = self();
    return ts.stack.empty() ? 0 : ts.stack.back().id;
}

Scope::Scope(SpanKind kind, uint32_t op, uint64_t parent)
    : active_(enabled())
{
    if (!active_)
        return;
    ThreadState &ts = self();
    if (parent == 0 && !ts.stack.empty())
        parent = ts.stack.back().id;
    const uint64_t id = (ts.index << 40) | ++ts.nextSpan;
    ts.stack.push_back(Frame{id, parent, nowNs(), 0, op, kind});
}

Scope::~Scope()
{
    if (!active_)
        return;
    const int64_t end = nowNs();
    ThreadState &ts = self();
    const Frame f = ts.stack.back();
    ts.stack.pop_back();
    const int64_t dur = end - f.start;
    SpanStat &s = ts.totals.spans[static_cast<size_t>(f.kind)];
    s.count++;
    s.totalNs += dur;
    s.selfNs += dur - f.childNs;
    if (!ts.stack.empty())
        ts.stack.back().childNs += dur;
    if (ts.spans.size() < kMaxSpansPerThread)
        ts.spans.push_back(Span{f.id, f.parent, f.start, end, f.op, f.kind});
    else
        ts.dropped++;
}

void
addRunMetrics(const golite::RunReport &report)
{
    if (!enabled())
        return;
    const golite::RunMetrics &m = report.metrics;
    RunCounts &c = self().totals.counts;
    c.runs++;
    c.contextSwitches += m.contextSwitches;
    c.spawns += m.spawns;
    c.parks += m.parks;
    c.netIoParks +=
        m.blocksByReason[static_cast<size_t>(golite::WaitReason::NetIO)];
    c.chanOps += m.chanSends + m.chanRecvs + m.chanCloses + m.chanTryOps;
    c.arenaBytesPeak = std::max(c.arenaBytesPeak, m.detector.arenaBytes);
}

void
Proxies::wrap(golite::RunOptions &options, bool add_metrics)
{
    if (!enabled())
        return;
    for (golite::Subscriber *&s : options.subscribers) {
        proxies_.push_back(std::make_unique<TimedSubscriber>(s));
        s = proxies_.back().get();
    }
    if (add_metrics)
        options.subscribers.push_back(&self().metrics);
}

Totals
totals()
{
    Totals sum;
    std::lock_guard<std::mutex> lock(gRegistryMu);
    for (const auto &ts : gRegistry) {
        const Totals &t = ts->totals;
        for (size_t i = 0; i < sum.spans.size(); ++i) {
            sum.spans[i].count += t.spans[i].count;
            sum.spans[i].totalNs += t.spans[i].totalNs;
            sum.spans[i].selfNs += t.spans[i].selfNs;
        }
        for (size_t i = 0; i < sum.calls.size(); ++i) {
            sum.calls[i].events += t.calls[i].events;
            sum.calls[i].eventNs += t.calls[i].eventNs;
            sum.calls[i].accesses += t.calls[i].accesses;
            sum.calls[i].accessNs += t.calls[i].accessNs;
        }
        RunCounts &c = sum.counts;
        c.runs += t.counts.runs;
        c.contextSwitches += t.counts.contextSwitches;
        c.spawns += t.counts.spawns;
        c.parks += t.counts.parks;
        c.netIoParks += t.counts.netIoParks;
        c.chanOps += t.counts.chanOps;
        c.arenaBytesPeak = std::max(c.arenaBytesPeak, t.counts.arenaBytesPeak);
    }
    return sum;
}

double
eventNs(const CallStat &c)
{
    return c.events ? static_cast<double>(c.eventNs) / c.events : 0.0;
}

double
accessNs(const CallStat &c)
{
    return c.accesses ? static_cast<double>(c.accessNs) / c.accesses : 0.0;
}

double
callNs(const CallStat &c)
{
    const uint64_t n = c.events + c.accesses;
    return n ? static_cast<double>(c.eventNs + c.accessNs) / n : 0.0;
}

void
addRuntimeMetrics(Result &r, const Totals &t, SpanKind run_span, uint64_t ops)
{
    const SpanStat &run = t.span(run_span);
    const RunCounts &c = t.counts;
    const double n = static_cast<double>(ops);
    r.add("runtime.run_us",
          run.count ? static_cast<double>(run.totalNs) / 1e3 / run.count : 0.0,
          "us", run.count);
    r.add("runtime.switches_per_op", c.contextSwitches / n, "count", ops);
    r.add("runtime.spawns_per_op", c.spawns / n, "count", ops);
    r.add("runtime.parks_per_op", c.parks / n, "count", ops);
    r.add("channel.ops_per_op", c.chanOps / n, "count", ops);
}

void
addRaceMetrics(Result &r, const Totals &t)
{
    const CallStat &race = t.call(SubKind::Race);
    const uint64_t runs = t.counts.runs;
    r.add("race.access_ns", accessNs(race), "ns", race.accesses);
    r.add("race.event_ns", eventNs(race), "ns", race.events);
    r.add("race.accesses_per_op",
          static_cast<double>(race.accesses) / static_cast<double>(runs),
          "count", runs);
    r.add("race.arena_bytes_peak",
          static_cast<double>(t.counts.arenaBytesPeak), "bytes", runs);
}

void
addTraceOverhead(Result &r, int64_t traced_ns, int64_t untraced_ns,
                 uint64_t passes)
{
    r.add("obs.trace_overhead",
          static_cast<double>(traced_ns) / static_cast<double>(untraced_ns),
          "ratio", passes);
}

double
timerPairNs()
{
    std::vector<double> reps;
    for (int r = 0; r < 9; ++r) {
        constexpr int kPairs = 100000;
        const int64_t t0 = nowNs();
        for (int i = 0; i < kPairs; ++i) {
            (void)nowNs();
            (void)nowNs();
        }
        reps.push_back(static_cast<double>(nowNs() - t0) / kPairs);
    }
    return median(reps);
}

uint64_t
writeSpans(const std::string &path, uint64_t *dropped)
{
    std::lock_guard<std::mutex> lock(gRegistryMu);
    uint64_t written = 0;
    *dropped = 0;
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return 0;
    std::fprintf(f, "id,parent,op,name,start_ns,end_ns\n");
    for (const auto &ts : gRegistry) {
        *dropped += ts->dropped;
        for (const Span &s : ts->spans) {
            std::fprintf(f, "%llu,%llu,%u,%s,%lld,%lld\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), s.op,
                         spanName(s.kind), static_cast<long long>(s.start),
                         static_cast<long long>(s.end));
            ++written;
        }
    }
    std::fclose(f);
    return written;
}

} // namespace perfbench::trace
