#ifndef DYNOPT_TESTS_SUPPORT_REFERENCE_KERNELS_H_
#define DYNOPT_TESTS_SUPPORT_REFERENCE_KERNELS_H_

#include <vector>

#include "exec/cluster.h"
#include "exec/metrics.h"
#include "support/dataset.h"

namespace dynopt {
namespace reference {

/// Sequential row-at-a-time reference implementations of the executor's
/// data-movement kernels, preserved from the original executor
/// (single-threaded shuffle, std::unordered_map<uint64_t,
/// std::vector<size_t>> build table, key hashes recomputed on build and
/// probe). They serve two purposes:
///  - oracle: exchange_test and columnar_test assert the batch kernels
///    produce identical rows in identical order, identical bytes_shuffled
///    and bit-identical simulated_seconds;
///  - baseline: bench/bench_kernels.cc measures the wall-clock speedup of
///    the batch kernels against these, writing BENCH_kernels.json.
///
/// Both kernels also fill the wall_* fields of ExecMetrics so the benchmark
/// can report a per-kernel-class breakdown for either implementation.

/// Hash-repartitions `input` into `cluster.num_nodes` partitions, metering
/// exactly like JobExecutor::Repartition.
Dataset Repartition(Dataset&& input, const std::vector<int>& key_indices,
                    const ClusterConfig& cluster, ExecMetrics* metrics);

/// Local hash join between aligned partitions, metering exactly like
/// JobExecutor::LocalHashJoin; emits build-row ++ probe-row.
Dataset LocalHashJoin(const Dataset& build, const Dataset& probe,
                      const std::vector<int>& build_keys,
                      const std::vector<int>& probe_keys,
                      const ClusterConfig& cluster, ExecMetrics* metrics);

}  // namespace reference
}  // namespace dynopt

#endif  // DYNOPT_TESTS_SUPPORT_REFERENCE_KERNELS_H_
