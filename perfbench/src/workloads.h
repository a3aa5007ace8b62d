// The benchmark's workloads. Each one sets itself up from the run's seed,
// measures for the requested time, verifies its outputs and fills in the
// report: end-to-end metrics from an untraced run, per-layer metrics from
// a traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "measure.h"

namespace perfbench {

/// The Sec. 6.1 trace replayed into one Wfit through the Tuner API.
void RunPaperTrace(const RunArgs& args, Report* report);
/// Four tenants through an in-process TunerNode, closed loop, durable.
void RunDurableNode(const RunArgs& args, Report* report);
/// Two tenants at a fixed Poisson rate with a reading and voting DBA.
void RunOltpDba(const RunArgs& args, Report* report);

/// Adds the statement-path per-layer metrics (service, persist, net,
/// load generator) as zeros, for a workload that has no statement path.
void AddNoStatementPathLayers(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
