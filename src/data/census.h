// The paper's motivating use case (Section 2): the Census of Population and
// Housing (CPH) schema and structured stand-ins for the SF1 / SF1+ workloads.
//
// The exact 4151 Census SF1 predicates are not published in machine-readable
// form; these generators reproduce their logical *shape* — a union of 32
// products over the CPH schema totalling exactly 4151 national queries, and
// the SF1+ extension that adds per-state grouping ([Total; Identity] on the
// State attribute, Example 5) for 215,852 queries total.
#ifndef HDMM_DATA_CENSUS_H_
#define HDMM_DATA_CENSUS_H_

#include "workload/domain.h"
#include "workload/workload.h"

namespace hdmm {

/// CPH Person schema: Hispanic(2) x Sex(2) x Race(64) x Relationship(17) x
/// Age(115), optionally extended with State(51). Domain sizes follow
/// Section 2 (500,480 cells national; 25,524,480 with State).
Domain CphDomain(bool include_state);

/// SF1 stand-in: 32 products, 4151 national-level predicate counting
/// queries. Defined over CphDomain(false), the 5-attribute national domain
/// (N = 500,480).
UnionWorkload Sf1Workload();

/// SF1+ stand-in: the same 32 products with [Total; Identity] on State,
/// 4151 * 52 = 215,852 queries (Example 5).
UnionWorkload Sf1PlusWorkload();

/// Adult dataset schema (Section 8.1): age(75) x education(16) x race(5) x
/// sex(2) x hours-per-week(20).
Domain AdultDomain();

/// CPS dataset schema (Section 8.1): income(100) x age(50) x
/// marital-status(7) x race(4) x sex(2).
Domain CpsDomain();

}  // namespace hdmm

#endif  // HDMM_DATA_CENSUS_H_
