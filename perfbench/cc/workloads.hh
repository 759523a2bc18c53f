/**
 * @file
 * The two workloads. Each measures for Params::seconds, checks the
 * library's outputs, and reports either the end-to-end metrics
 * (traced == false) or the per-layer metrics of a traced run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <vector>

#include "common.hh"
#include "corpus/bug.hh"

namespace perfbench
{

/** One corpus kernel in one of its two variants. */
struct KernelVariant
{
    const golite::corpus::BugCase *bug;
    golite::corpus::Variant variant;

    bool buggy() const { return variant == golite::corpus::Variant::Buggy; }
};

/** Every corpus kernel, buggy then fixed, in registration order. */
inline std::vector<KernelVariant>
kernelVariants()
{
    std::vector<KernelVariant> out;
    for (const golite::corpus::BugCase &bug : golite::corpus::corpus()) {
        out.push_back({&bug, golite::corpus::Variant::Buggy});
        out.push_back({&bug, golite::corpus::Variant::Fixed});
    }
    return out;
}

/** Fuzz + DPOR verdict per corpus kernel variant. */
Result runHunt(const Params &p, bool traced);

/** Detector-on seed sweeps through the parallel pool. */
Result runSweep(const Params &p, bool traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
