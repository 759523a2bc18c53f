/**
 * @file
 * The M:N probe of the traced run: ExecMode::Parallel runs on
 * kThreads threads via parallel::runParallel, with race::Sharded
 * attached. The program is a kWorkers-goroutine fan-out/fan-in
 * pipeline over buffered channels that also adds every result into a
 * mutex-guarded race::Shared counter. Each round must produce the
 * exact sum, twice, and no race report; a wrong round counts its
 * items as failed ops.
 *
 * It reports the cost of a proxied race::Sharded access and how long
 * a parallel-mode round takes against the same program in
 * deterministic mode. It is a probe, not a workload: its rounds
 * followed the host's speed too closely to gate anything
 * (NOTES.md).
 */

#include <functional>

#include "channel/chan.hh"
#include "parallel/sweep.hh"
#include "probes.hh"
#include "race/shared.hh"
#include "race/sharded.hh"
#include "sync/mutex.hh"
#include "sync/waitgroup.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace golite;

constexpr size_t kItems = 5000;
constexpr int kWorkers = 16;
constexpr size_t kChanCap = 64;
constexpr unsigned kThreads = 2;
/** Rounds of each kind: parallel, deterministic, traced parallel. */
constexpr int kRounds = 5;

/** Hash rounds per item (about 12 us) outside any lock, so the team
 *  has parallel work between channel hand-offs instead of only
 *  contending for the scheduler lock. */
constexpr int kWorkRounds = 1500;

/** Per-item work; keeps results small so sums cannot overflow. */
uint64_t
work(uint64_t v)
{
    for (int i = 0; i < kWorkRounds; ++i)
        v = mix(v);
    return v & 0xffff;
}

struct Outcome
{
    uint64_t sinkSum = 0;
    uint64_t counter = 0;
    RunReport report;
};

std::function<void()>
pipeline(const std::vector<uint64_t> &items, Outcome &out)
{
    return [&items, &out] {
        Chan<uint64_t> in = makeChan<uint64_t>(kChanCap);
        Chan<uint64_t> results = makeChan<uint64_t>(kChanCap);
        Mutex mu;
        race::Shared<uint64_t> counter("mn.counter", 0);
        WaitGroup wg;
        wg.add(kWorkers);
        for (int w = 0; w < kWorkers; ++w) {
            go([&] {
                for (RecvResult<uint64_t> r = in.recv(); r.ok;
                     r = in.recv()) {
                    const uint64_t f = work(r.value);
                    mu.lock();
                    counter.update([f](uint64_t &c) { c += f; });
                    mu.unlock();
                    results.send(f);
                }
                wg.done();
            });
        }
        go([&] {
            wg.wait();
            results.close();
        });
        go([&] {
            for (uint64_t v : items)
                in.send(v);
            in.close();
        });
        for (RecvResult<uint64_t> r = results.recv(); r.ok;
             r = results.recv())
            out.sinkSum += r.value;
        mu.lock();
        out.counter = counter.load();
        mu.unlock();
    };
}

class Mn
{
  public:
    explicit Mn(uint64_t seed)
    {
        items.resize(kItems);
        for (size_t i = 0; i < kItems; ++i) {
            items[i] = mix(seed, i);
            expected += work(items[i]);
        }
        sweep.workers = kThreads;
        parallel::installPoolExecutor();
        parallel::warmSweepWorkers(sweep);
    }

    /** One parallel round; returns its wall ns. */
    int64_t
    parallelRound(Result &r)
    {
        Outcome out;
        sharded.reset();
        RunOptions ro = options();
        trace::Proxies proxies;
        proxies.wrap(ro, false);
        const int64_t t0 = nowNs();
        {
            trace::Scope span(trace::SpanKind::RunParallel);
            out.report =
                parallel::runParallel(pipeline(items, out), ro, sweep);
        }
        const int64_t ns = nowNs() - t0;
        check(out, r);
        return ns;
    }

    /** The same program in deterministic mode; returns its wall ns. */
    int64_t
    deterministicRound(Result &r)
    {
        Outcome out;
        sharded.reset();
        const int64_t t0 = nowNs();
        out.report = run(pipeline(items, out), options());
        const int64_t ns = nowNs() - t0;
        check(out, r);
        return ns;
    }

  private:
    /** No random preemption: the pipeline is race-free, so the run's
     *  switches come from its channels and mutex alone. */
    RunOptions
    options()
    {
        RunOptions ro;
        ro.preemptProb = 0;
        ro.subscribers = {&sharded};
        return ro;
    }

    void
    check(const Outcome &out, Result &r) const
    {
        r.attempted += kItems;
        const RunReport &rep = out.report;
        if (out.sinkSum == expected && out.counter == expected &&
            rep.completed && rep.raceMessages.empty() && rep.leaked.empty())
            return;
        r.failed += kItems;
        r.noteFailure(
            "mn round wrong: sink=" + std::to_string(out.sinkSum) +
            " counter=" + std::to_string(out.counter) +
            " want=" + std::to_string(expected) +
            " races=" + std::to_string(rep.raceMessages.size()) +
            " completed=" + std::to_string(rep.completed));
    }

    std::vector<uint64_t> items;
    uint64_t expected = 0;
    parallel::SweepOptions sweep;
    race::Sharded sharded;
};

} // namespace

void
runMnProbe(Result &out, uint64_t seed)
{
    Mn mn(seed);
    // One untimed round warms the team's stacks and the detector.
    mn.parallelRound(out);

    std::vector<double> parallelNs;
    std::vector<double> detNs;
    for (int i = 0; i < kRounds; ++i) {
        parallelNs.push_back(static_cast<double>(mn.parallelRound(out)));
        detNs.push_back(static_cast<double>(mn.deterministicRound(out)));
    }

    const trace::CallStat before =
        trace::totals().call(trace::SubKind::Sharded);
    trace::setEnabled(true);
    for (int i = 0; i < kRounds; ++i)
        mn.parallelRound(out);
    trace::setEnabled(false);
    const trace::CallStat after =
        trace::totals().call(trace::SubKind::Sharded);

    const uint64_t accesses = after.accesses - before.accesses;
    out.add("race.sharded_access_ns",
            accesses ? static_cast<double>(after.accessNs - before.accessNs) /
                           static_cast<double>(accesses)
                     : 0.0,
            "ns", accesses);
    out.add("parallel.mn_vs_det", median(parallelNs) / median(detNs),
            "ratio", parallelNs.size());
}

} // namespace perfbench
