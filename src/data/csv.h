// CSV ingestion for datasets over multi-dimensional domains: the bridge from
// raw microdata files to the data vector x of Section 3.4. The expected file
// shape is one header row naming attributes (any order; a subset of the
// domain's attributes is rejected) followed by one row of integer attribute
// positions per record.
#ifndef HDMM_DATA_CSV_H_
#define HDMM_DATA_CSV_H_

#include <string>

#include "data/dataset.h"
#include "workload/domain.h"

namespace hdmm {

/// Parses CSV text into a Dataset over `domain`. The header must name every
/// domain attribute exactly once (column order is free; the domain gives the
/// canonical order). Values must be integers in [0, |dom(A)|). Returns false
/// and fills *error with a line-numbered message on any malformed content.
bool ParseCsvDataset(const std::string& text, const Domain& domain,
                     Dataset* out, std::string* error);

/// ParseCsvDataset from a file path.
bool LoadCsvDataset(const std::string& path, const Domain& domain,
                    Dataset* out, std::string* error);

}  // namespace hdmm

#endif  // HDMM_DATA_CSV_H_
