// Synthetic data-vector generators. The paper's headline error metric is
// data-independent; real datasets matter only for the data-dependent
// algorithms (DAWA, PrivBayes). These generators produce the controlled
// non-uniformity those algorithms are sensitive to. They stand in for the
// real datasets of the paper's data-dependent experiments, which are not
// shipped with the library.
#ifndef HDMM_DATA_SYNTHETIC_H_
#define HDMM_DATA_SYNTHETIC_H_

#include "common/rng.h"
#include "linalg/vector_ops.h"
#include "workload/domain.h"

namespace hdmm {

/// `total` records spread uniformly at random over the domain.
Vector UniformDataVector(const Domain& domain, int64_t total, Rng* rng);

/// Zipf-distributed cell masses (heavy head, long tail), shuffled across the
/// domain; `shape` > 0 controls skew (1.0 is classic Zipf).
Vector ZipfDataVector(const Domain& domain, int64_t total, double shape,
                      Rng* rng);

/// Piecewise-uniform data with `num_clusters` contiguous segments of very
/// different density. This is the structure DAWA's partitioning stage
/// exploits (approximately uniform regions, Section 8.1 of [25]).
Vector ClusteredDataVector(const Domain& domain, int64_t total,
                           int num_clusters, Rng* rng);

/// Named 1D shapes standing in for the DPBench datasets used in Table 6
/// (Hepth, Medcost, Nettrace, Patent, Searchlogs): each has a distinctive
/// density profile (spiky, smooth, sparse, bimodal, heavy-tailed).
Vector DpbenchStandinDataVector(const std::string& name, int64_t domain_size,
                                int64_t total, Rng* rng);

}  // namespace hdmm

#endif  // HDMM_DATA_SYNTHETIC_H_
