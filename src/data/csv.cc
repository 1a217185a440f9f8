#include "data/csv.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace hdmm {
namespace {

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(Trim(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(Trim(current));
  return fields;
}

std::string LineError(int line_no, const std::string& message) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "line %d: %s", line_no, message.c_str());
  return buf;
}

}  // namespace

bool ParseCsvDataset(const std::string& text, const Domain& domain,
                     Dataset* out, std::string* error) {
  HDMM_CHECK(out != nullptr && error != nullptr);
  std::istringstream in(text);
  std::string line;
  int line_no = 0;

  // Header: map CSV column -> domain attribute.
  if (!std::getline(in, line)) {
    *error = "empty input (missing header)";
    return false;
  }
  ++line_no;
  const std::vector<std::string> header = SplitCsvLine(line);
  const int d = domain.NumAttributes();
  std::vector<int> column_attr(header.size(), -1);
  std::vector<bool> attr_seen(static_cast<size_t>(d), false);
  for (size_t c = 0; c < header.size(); ++c) {
    int attr = -1;
    for (int a = 0; a < d; ++a) {
      if (domain.AttributeName(a) == header[c]) attr = a;
    }
    if (attr < 0) {
      *error = LineError(line_no, "header column '" + header[c] +
                                      "' is not a domain attribute");
      return false;
    }
    if (attr_seen[static_cast<size_t>(attr)]) {
      *error = LineError(line_no,
                         "duplicate header column '" + header[c] + "'");
      return false;
    }
    attr_seen[static_cast<size_t>(attr)] = true;
    column_attr[c] = attr;
  }
  for (int a = 0; a < d; ++a) {
    if (!attr_seen[static_cast<size_t>(a)]) {
      *error = LineError(line_no, "header is missing domain attribute '" +
                                      domain.AttributeName(a) + "'");
      return false;
    }
  }

  Dataset dataset(domain);
  std::vector<int64_t> coords(static_cast<size_t>(d));
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    const std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      *error = LineError(
          line_no, "expected " + std::to_string(header.size()) +
                       " fields, got " + std::to_string(fields.size()));
      return false;
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      const int attr = column_attr[c];
      char* end = nullptr;
      const long long v = std::strtoll(fields[c].c_str(), &end, 10);
      if (fields[c].empty() || end != fields[c].c_str() + fields[c].size()) {
        *error = LineError(line_no, "non-integer value '" + fields[c] +
                                        "' for attribute '" +
                                        domain.AttributeName(attr) + "'");
        return false;
      }
      if (v < 0 || v >= domain.AttributeSize(attr)) {
        *error = LineError(
            line_no, "value " + std::to_string(v) + " outside dom(" +
                         domain.AttributeName(attr) + ") = [0, " +
                         std::to_string(domain.AttributeSize(attr)) + ")");
        return false;
      }
      coords[static_cast<size_t>(attr)] = v;
    }
    dataset.AddRecord(coords);
  }
  *out = std::move(dataset);
  return true;
}

bool LoadCsvDataset(const std::string& path, const Domain& domain,
                    Dataset* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsvDataset(buffer.str(), domain, out, error);
}

}  // namespace hdmm
