/**
 * @file
 * The layer-ledger probes of the traced run.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include "common.hh"

namespace perfbench
{

/** Time fiber switch/dispatch, spawn->finish, channel rendezvous,
 *  select, bus publish with 0/1/8 subscribers, detector access, timer
 *  sleep overshoot, netpoll round trip and parks per soak request, and
 *  run the M:N probe; append one metric each. Inputs come from
 *  @p seed; failed checks are counted in @p out. */
void runLedgerProbes(Result &out, uint64_t seed);

/** M:N pipeline: race.sharded_access_ns and parallel.mn_vs_det. */
void runMnProbe(Result &out, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
