/**
 * @file
 * hunt: one op is one corpus kernel variant taken to a verdict by a
 * coverage-guided fuzz campaign (race detector attached) and a
 * bounded DPOR exploration. Buggy variants must be found by both
 * searchers; fixed variants must be flagged by neither.
 */

#include <numeric>
#include <random>

#include "explore/explorer.hh"
#include "fuzz/fuzzer.hh"
#include "race/detector.hh"
#include "runtime/scheduler.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace golite;

constexpr size_t kFuzzBudget = 300;
constexpr size_t kDporBudget = 2000;
constexpr int kPreemptionBound = 2;
constexpr int kSetupReps = 9;
constexpr uint64_t kWarmSeeds = 32;

struct Verdict
{
    bool fuzzFound = false;
    bool dporFlagged = false;
    size_t fuzzExecs = 0;
    size_t dporExecs = 0;
    size_t dporRedundant = 0;
};

/** One kernel run, traced when tracing is on. */
corpus::BugOutcome
runKernel(const KernelVariant &kv, RunOptions ro)
{
    trace::Proxies proxies;
    proxies.wrap(ro);
    trace::Scope span(trace::SpanKind::Run);
    corpus::BugOutcome out = kv.bug->run(kv.variant, ro);
    trace::addRunMetrics(out.report);
    return out;
}

Verdict
huntOne(const KernelVariant &kv, uint32_t op, uint64_t fuzz_seed,
        race::Detector &detector)
{
    trace::Scope opSpan(trace::SpanKind::Op, op);
    Verdict v;

    fuzz::FuzzOptions fo;
    fo.maxExecutions = kFuzzBudget;
    fo.workers = 1;
    fo.attachRaceDetector = true;
    fo.fuzzSeed = fuzz_seed;
    {
        trace::Scope span(trace::SpanKind::FuzzRun, op);
        const fuzz::FuzzResult fr = fuzz::fuzzRun(
            [&kv](const RunOptions &base) {
                corpus::BugOutcome out = runKernel(kv, base);
                const bool hit =
                    out.manifested || !out.report.raceMessages.empty();
                return fuzz::Execution{std::move(out.report), hit};
            },
            fo);
        v.fuzzFound = fr.bugFound;
        v.fuzzExecs = fr.executions;
    }

    explore::ExploreOptions eo;
    eo.mode = explore::ExploreMode::Dpor;
    eo.preemptionBound = kPreemptionBound;
    eo.maxSchedules = kDporBudget;
    {
        trace::Scope span(trace::SpanKind::ExploreAll, op);
        const explore::ExploreResult er = explore::exploreAll(
            [&kv, &detector](const RunOptions &base) {
                detector.reset();
                RunOptions ro = base;
                ro.subscribers.push_back(&detector);
                corpus::BugOutcome out = runKernel(kv, ro);
                if (out.manifested)
                    out.report.raceMessages.push_back(
                        "kernel bug manifested: " + out.note);
                return std::move(out.report);
            },
            eo);
        v.dporFlagged = er.anyBad();
        v.dporExecs = er.executions;
        v.dporRedundant = er.redundant;
    }
    return v;
}

struct Hunt
{
    std::vector<KernelVariant> ops;
    race::Detector detector{4};
    uint64_t seed = 0;

    /** Op order and fuzz seeds of pass @p pass, drawn from the seed. */
    std::vector<uint32_t>
    order(uint64_t pass) const
    {
        std::vector<uint32_t> idx(ops.size());
        std::iota(idx.begin(), idx.end(), 0);
        std::mt19937_64 rng(mix(seed, pass));
        std::shuffle(idx.begin(), idx.end(), rng);
        return idx;
    }

    /** One pass over every op; appends per-op latencies. Returns the
     *  number of wrong verdicts. */
    uint64_t
    pass(uint64_t pass_no, std::vector<double> *latency_ms,
         std::vector<Verdict> *verdicts, Result &r)
    {
        uint64_t wrong = 0;
        for (uint32_t i : order(pass_no)) {
            const KernelVariant &kv = ops[i];
            const int64_t t0 = nowNs();
            const Verdict v =
                huntOne(kv, i, mix(seed, pass_no * 1000 + i), detector);
            if (latency_ms != nullptr)
                latency_ms->push_back(
                    static_cast<double>(nowNs() - t0) / 1e6);
            if (verdicts != nullptr)
                verdicts->push_back(v);
            const bool right = kv.buggy()
                                   ? v.fuzzFound && v.dporFlagged
                                   : !v.fuzzFound && !v.dporFlagged;
            if (!right) {
                ++wrong;
                r.noteFailure(
                    "wrong verdict: " + kv.bug->info.id +
                    (kv.buggy() ? " buggy" : " fixed") +
                    " fuzz=" + std::to_string(v.fuzzFound) +
                    " dpor=" + std::to_string(v.dporFlagged));
            }
        }
        return wrong;
    }
};

/** Set-up: plan the ops and warm the run arenas with kWarmSeeds
 *  detector-on runs of every kernel variant. */
void
setUp(Hunt &h, uint64_t seed)
{
    h.ops = kernelVariants();
    h.seed = seed;
    for (const KernelVariant &kv : h.ops) {
        for (uint64_t i = 0; i < kWarmSeeds; ++i) {
            h.detector.reset();
            RunOptions ro;
            ro.seed = mix(seed, i);
            ro.subscribers = {&h.detector};
            kv.bug->run(kv.variant, ro);
        }
    }
}

} // namespace

Result
runHunt(const Params &p, bool traced)
{
    Result r;
    Hunt h;
    const double setupS = timeSetup(kSetupReps, [&] { setUp(h, p.seed); });

    Samples s;
    std::vector<Verdict> verdicts;
    int64_t tracedNs = 0;
    int64_t untracedNs = 0;
    const int64_t deadline = nowNs() + static_cast<int64_t>(p.seconds * 1e9);
    uint64_t passNo = 0;
    do {
        if (traced) {
            // Identical work with tracing off, then on.
            const int64_t t0 = nowNs();
            r.failed += h.pass(passNo, nullptr, nullptr, r);
            const int64_t t1 = nowNs();
            trace::setEnabled(true);
            r.failed += h.pass(passNo, nullptr, &verdicts, r);
            trace::setEnabled(false);
            untracedNs += t1 - t0;
            tracedNs += nowNs() - t1;
            r.attempted += 2 * h.ops.size();
        } else {
            const int64_t t0 = nowNs();
            const int64_t c0 = cpuNs();
            r.failed += h.pass(passNo, &s.latencyMs, nullptr, r);
            s.pass(h.ops.size(), nowNs() - t0, cpuNs() - c0);
            r.attempted += h.ops.size();
        }
        ++passNo;
    } while (nowNs() < deadline);

    if (!traced) {
        r.addEndToEnd(s, setupS, kSetupReps);
        return r;
    }

    const trace::Totals t = trace::totals();
    const double ops = static_cast<double>(verdicts.size());
    double fuzzExecs = 0, dporExecs = 0, redundant = 0;
    for (const Verdict &v : verdicts) {
        fuzzExecs += static_cast<double>(v.fuzzExecs);
        dporExecs += static_cast<double>(v.dporExecs);
        redundant += static_cast<double>(v.dporRedundant);
    }
    const trace::SpanStat &fz = t.span(trace::SpanKind::FuzzRun);
    const trace::SpanStat &ex = t.span(trace::SpanKind::ExploreAll);
    const trace::CallStat &probe = t.call(trace::SubKind::FuzzProbe);
    const trace::CallStat &oracle = t.call(trace::SubKind::Oracle);
    trace::addRuntimeMetrics(r, t, trace::SpanKind::Run, t.counts.runs);
    trace::addRaceMetrics(r, t);
    r.add("fuzz.self_us_per_exec",
          static_cast<double>(fz.selfNs) / 1e3 / fuzzExecs, "us",
          static_cast<uint64_t>(fuzzExecs));
    r.add("fuzz.probe_ns_per_event", trace::callNs(probe), "ns",
          probe.events + probe.accesses);
    r.add("fuzz.execs_per_verdict", fuzzExecs / ops, "count", verdicts.size());
    r.add("explore.self_us_per_exec",
          static_cast<double>(ex.selfNs) / 1e3 / dporExecs, "us",
          static_cast<uint64_t>(dporExecs));
    r.add("explore.oracle_ns_per_event", trace::callNs(oracle), "ns",
          oracle.events + oracle.accesses);
    r.add("explore.redundant_share", redundant / dporExecs, "ratio",
          static_cast<uint64_t>(dporExecs));
    r.add("explore.execs_per_verdict", dporExecs / ops, "count",
          verdicts.size());
    trace::addTraceOverhead(r, tracedNs, untracedNs, passNo);
    return r;
}

} // namespace perfbench
