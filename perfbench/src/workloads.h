// The three workloads and the per-layer suites of the traced run.
//
// Run*: five rounds, each setting up from scratch (ending in a fixed
// warm-up) and then timing a fifth of the window with tracing off; fill
// the end-to-end metrics, scaled to the nominal machine speed. With
// options.trace there is one set-up and the window is split into an
// untraced and a traced half; only the tracing overhead is reported.
//
// *Layers: each per-layer metric is measured on one fixed input stream,
// its home workload's, built from the run's seed, so that every traced
// run prints every layer metric whatever its workload (see NOTES.md).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunServeSmall(const Options& options, Report* report);
void RunBatchLarge(const Options& options, Report* report);
void RunApproxCorpus(const Options& options, Report* report);

void ServeLayers(const Options& options, Report* report);
void DocumentLayers(const Options& options, Report* report);
void ApproxLayers(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
