#include "core/strategy_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"

namespace hdmm {
namespace {

constexpr char kHeader[] = "hdmm-strategy v1";

void AppendDouble(std::ostringstream* out, double v) {
  // Range first: casting NaN or a double past int64's range is UB.
  if (std::abs(v) < 1e15 && v == static_cast<int64_t>(v)) {
    *out << static_cast<int64_t>(v);
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out << buf;
  }
}

void AppendMatrixLine(std::ostringstream* out, const char* tag,
                      const Matrix& m) {
  *out << tag << " " << m.rows() << "x" << m.cols() << " ";
  for (int64_t i = 0; i < m.size(); ++i) {
    if (i > 0) *out << ",";
    AppendDouble(out, m.data()[i]);
  }
  *out << "\n";
}

// --- Parsing helpers ---------------------------------------------------------

struct LineReader {
  std::istringstream in;
  std::string line;
  int line_no = 0;
  bool eof = false;

  explicit LineReader(const std::string& text) : in(text) {}

  // Advances to the next non-empty line; returns false at end of input.
  bool Next() {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.find_first_not_of(" \t\r") != std::string::npos)
        return true;
    }
    eof = true;
    return false;
  }

  std::string Error(const std::string& message) const {
    return "line " + std::to_string(line_no) + ": " + message;
  }
};

bool ParseMatrixLine(const std::string& line, const std::string& tag,
                     Matrix* out, std::string* why) {
  std::istringstream in(line);
  std::string word, shape, payload, extra;
  in >> word >> shape >> payload;
  if (word != tag) {
    *why = "expected '" + tag + "' line";
    return false;
  }
  if (in >> extra) {
    *why = "trailing garbage '" + extra + "' after matrix payload";
    return false;
  }
  const size_t x = shape.find('x');
  if (x == std::string::npos) {
    *why = "bad shape '" + shape + "'";
    return false;
  }
  // Strict shape parse: both numbers fully consumed, positive, and small
  // enough that rows * cols cannot overflow — a corrupt shape must become a
  // parse error here, never a giant allocation or UB downstream.
  char* end = nullptr;
  const int64_t rows = std::strtoll(shape.c_str(), &end, 10);
  if (end != shape.c_str() + x) {
    *why = "bad shape '" + shape + "'";
    return false;
  }
  const int64_t cols = std::strtoll(shape.c_str() + x + 1, &end, 10);
  if (end != shape.c_str() + shape.size()) {
    *why = "bad shape '" + shape + "'";
    return false;
  }
  constexpr int64_t kMaxDim = int64_t{1} << 31;
  if (rows <= 0 || cols <= 0 || rows > kMaxDim || cols > kMaxDim) {
    *why = "bad shape '" + shape + "'";
    return false;
  }
  std::vector<double> data;
  // Reserve from the payload's actual size, not the claimed shape: memory
  // stays bounded by the bytes we were actually handed.
  data.reserve(payload.size() / 2 + 1);
  std::string token;
  std::istringstream values(payload);
  while (std::getline(values, token, ',')) {
    const double v = std::strtod(token.c_str(), &end);
    // A non-finite entry (nan, inf, or an overflowing 1e400) is corruption:
    // served, it turns every answer and error estimate into nan.
    if (token.empty() || end != token.c_str() + token.size() ||
        !std::isfinite(v)) {
      *why = "bad entry '" + token + "'";
      return false;
    }
    data.push_back(v);
  }
  if (rows > static_cast<int64_t>(data.size()) ||
      static_cast<int64_t>(data.size()) != rows * cols) {
    *why = "entry count does not match shape";
    return false;
  }
  *out = Matrix(rows, cols, std::move(data));
  return true;
}

// Reads "key value value ..." integer lines.
bool ParseIntList(const std::string& line, const std::string& tag,
                  std::vector<int64_t>* out, std::string* why) {
  std::istringstream in(line);
  std::string word;
  in >> word;
  if (word != tag) {
    *why = "expected '" + tag + "' line";
    return false;
  }
  int64_t v;
  while (in >> v) out->push_back(v);
  if (in.fail() && !in.eof()) {
    *why = "bad integer in '" + tag + "' line";
    return false;
  }
  return true;
}

std::unique_ptr<Strategy> ParseExplicit(LineReader* reader,
                                        const std::string& name,
                                        std::string* error) {
  if (!reader->Next()) {
    *error = reader->Error("missing 'matrix' line");
    return nullptr;
  }
  Matrix m;
  std::string why;
  if (!ParseMatrixLine(reader->line, "matrix", &m, &why)) {
    *error = reader->Error(why);
    return nullptr;
  }
  if (reader->Next()) {
    *error = reader->Error("trailing garbage after 'matrix' line");
    return nullptr;
  }
  return std::make_unique<ExplicitStrategy>(std::move(m), name);
}

std::unique_ptr<Strategy> ParseKron(LineReader* reader,
                                    const std::string& name,
                                    std::string* error) {
  std::vector<Matrix> factors;
  while (reader->Next()) {
    Matrix m;
    std::string why;
    if (!ParseMatrixLine(reader->line, "factor", &m, &why)) {
      *error = reader->Error(why);
      return nullptr;
    }
    factors.push_back(std::move(m));
  }
  if (factors.empty()) {
    *error = "kron strategy has no factors";
    return nullptr;
  }
  return std::make_unique<KronStrategy>(std::move(factors), name);
}

std::unique_ptr<Strategy> ParseUnionKron(LineReader* reader,
                                         const std::string& name,
                                         std::string* error) {
  std::vector<std::vector<Matrix>> parts;
  std::vector<std::vector<int>> covers;
  while (reader->Next()) {
    if (reader->line.rfind("part", 0) == 0) {
      parts.emplace_back();
      covers.emplace_back();
      continue;
    }
    if (parts.empty()) {
      *error = reader->Error("expected 'part' before factors");
      return nullptr;
    }
    if (reader->line.rfind("covers", 0) == 0) {
      std::vector<int64_t> ids;
      std::string why;
      if (!ParseIntList(reader->line, "covers", &ids, &why)) {
        *error = reader->Error(why);
        return nullptr;
      }
      for (int64_t id : ids) {
        // Product ids index into the serving workload: a negative or absurd
        // id is corruption, and letting it through would trip a contract
        // check (abort) at first expected-error evaluation.
        if (id < 0 || id > (int64_t{1} << 31)) {
          *error = reader->Error("bad product id in 'covers' line");
          return nullptr;
        }
        covers.back().push_back(static_cast<int>(id));
      }
      continue;
    }
    Matrix m;
    std::string why;
    if (!ParseMatrixLine(reader->line, "factor", &m, &why)) {
      *error = reader->Error(why);
      return nullptr;
    }
    parts.back().push_back(std::move(m));
  }
  if (parts.empty()) {
    *error = "union-kron strategy has no parts";
    return nullptr;
  }
  for (const auto& p : parts) {
    if (p.empty()) {
      *error = "union-kron part has no factors";
      return nullptr;
    }
  }
  // Every part must cover the same domain, factor by factor. Truncated or
  // spliced input that drops a factor from a later part would otherwise
  // construct a strategy whose parts disagree on the domain size and trip a
  // contract check (abort) inside the stacked measurement operator.
  for (size_t p = 1; p < parts.size(); ++p) {
    if (parts[p].size() != parts[0].size()) {
      *error = "union-kron parts disagree on factor count";
      return nullptr;
    }
    for (size_t i = 0; i < parts[p].size(); ++i) {
      if (parts[p][i].cols() != parts[0][i].cols()) {
        *error = "union-kron parts disagree on domain sizes";
        return nullptr;
      }
    }
  }
  return std::make_unique<UnionKronStrategy>(std::move(parts),
                                             std::move(covers), name);
}

std::unique_ptr<Strategy> ParseMarginals(LineReader* reader,
                                         const std::string& name,
                                         std::string* error) {
  if (!reader->Next()) {
    *error = reader->Error("missing 'domain' line");
    return nullptr;
  }
  std::vector<int64_t> sizes;
  std::string why;
  if (!ParseIntList(reader->line, "domain", &sizes, &why)) {
    *error = reader->Error(why);
    return nullptr;
  }
  if (sizes.empty()) {
    *error = reader->Error("empty domain");
    return nullptr;
  }
  // Corruption guards: the MarginalsStrategy constructor's contracts
  // (positive sizes, 2^d masks, a nonempty active set) must be established
  // here — a bad cache file has to surface as a parse error, not an abort.
  if (sizes.size() > 30) {
    *error = reader->Error("marginals domain has more than 30 attributes");
    return nullptr;
  }
  for (int64_t size : sizes) {
    if (size < 1) {
      *error = reader->Error("non-positive attribute size in 'domain' line");
      return nullptr;
    }
  }
  int64_t cells = 0;
  if (!CheckedCellCount(sizes, &cells)) {
    *error = reader->Error("marginals domain cell count overflows int64");
    return nullptr;
  }
  if (!reader->Next()) {
    *error = reader->Error("missing 'theta' line");
    return nullptr;
  }
  std::istringstream in(reader->line);
  std::string word;
  in >> word;
  if (word != "theta") {
    *error = reader->Error("expected 'theta' line");
    return nullptr;
  }
  Vector theta;
  double v;
  while (in >> v) theta.push_back(v);
  if (in.fail() && !in.eof()) {
    *error = reader->Error("bad weight in 'theta' line");
    return nullptr;
  }
  const size_t expected = size_t{1} << sizes.size();
  if (theta.size() != expected) {
    *error = reader->Error("theta needs exactly 2^d = " +
                           std::to_string(expected) + " weights");
    return nullptr;
  }
  bool any_active = false;
  for (double w : theta) {
    if (!std::isfinite(w) || w < 0.0) {
      *error = reader->Error("theta weights must be finite and non-negative");
      return nullptr;
    }
    if (w > 1e-12) any_active = true;
  }
  if (!any_active) {
    *error = reader->Error("marginals strategy with all-zero weights");
    return nullptr;
  }
  // A strategy from outside must measure the full table, as OPT_M's plans do
  // (min_full_weight): then M^T M is invertible and every query is
  // supported. A zero, or a tiny weight whose square underflows, could leave
  // a workload unsupported (infinite error) after the budget is charged.
  const double full = theta.back();
  if (!(full * full > 0.0)) {
    *error = reader->Error(
        "theta's full-table weight (last entry) must have a positive square");
    return nullptr;
  }
  if (reader->Next()) {
    *error = reader->Error("trailing garbage after 'theta' line");
    return nullptr;
  }
  return std::make_unique<MarginalsStrategy>(Domain(std::move(sizes)),
                                             std::move(theta), name);
}

}  // namespace

std::string SerializeStrategy(const Strategy& strategy) {
  std::ostringstream out;
  out << kHeader << "\n";
  if (const auto* e = dynamic_cast<const ExplicitStrategy*>(&strategy)) {
    out << "kind explicit\nname " << e->Name() << "\n";
    AppendMatrixLine(&out, "matrix", e->matrix());
    return out.str();
  }
  if (const auto* k = dynamic_cast<const KronStrategy*>(&strategy)) {
    out << "kind kron\nname " << k->Name() << "\n";
    for (const Matrix& f : k->factors()) AppendMatrixLine(&out, "factor", f);
    return out.str();
  }
  if (const auto* u = dynamic_cast<const UnionKronStrategy*>(&strategy)) {
    out << "kind union-kron\nname " << u->Name() << "\n";
    for (int p = 0; p < u->NumParts(); ++p) {
      out << "part\n";
      out << "covers";
      for (int id : u->group_products()[static_cast<size_t>(p)]) {
        out << " " << id;
      }
      out << "\n";
      for (const Matrix& f : u->parts()[static_cast<size_t>(p)]) {
        AppendMatrixLine(&out, "factor", f);
      }
    }
    return out.str();
  }
  if (const auto* m = dynamic_cast<const MarginalsStrategy*>(&strategy)) {
    out << "kind marginals\nname " << m->Name() << "\n";
    out << "domain";
    for (int i = 0; i < m->domain().NumAttributes(); ++i) {
      out << " " << m->domain().AttributeSize(i);
    }
    out << "\ntheta";
    for (double v : m->theta()) {
      out << " ";
      AppendDouble(&out, v);
    }
    out << "\n";
    return out.str();
  }
  HDMM_CHECK_MSG(false, "unknown strategy type for serialization");
  return "";
}

std::unique_ptr<Strategy> ParseStrategy(const std::string& text,
                                        std::string* error) {
  HDMM_CHECK(error != nullptr);
  LineReader reader(text);
  if (!reader.Next() || reader.line != kHeader) {
    *error = "missing 'hdmm-strategy v1' header";
    return nullptr;
  }
  if (!reader.Next() || reader.line.rfind("kind ", 0) != 0) {
    *error = reader.Error("missing 'kind' line");
    return nullptr;
  }
  const std::string kind = reader.line.substr(5);
  if (!reader.Next() || reader.line.rfind("name ", 0) != 0) {
    *error = reader.Error("missing 'name' line");
    return nullptr;
  }
  const std::string name = reader.line.substr(5);

  std::unique_ptr<Strategy> strategy;
  if (kind == "explicit") {
    strategy = ParseExplicit(&reader, name, error);
  } else if (kind == "kron") {
    strategy = ParseKron(&reader, name, error);
  } else if (kind == "union-kron") {
    strategy = ParseUnionKron(&reader, name, error);
  } else if (kind == "marginals") {
    strategy = ParseMarginals(&reader, name, error);
  } else {
    *error = reader.Error("unknown strategy kind '" + kind + "'");
    return nullptr;
  }
  if (strategy == nullptr) return nullptr;
  // Noise is scaled to the sensitivity, and the mechanisms abort on a zero
  // or non-finite one (an all-zero factor, or entries whose column sums
  // overflow). Such a file can never be measured, so it is corruption.
  const double sensitivity = strategy->Sensitivity();
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    *error = "strategy sensitivity " + std::to_string(sensitivity) +
             " is not positive and finite";
    return nullptr;
  }
  return strategy;
}

bool SaveStrategyFile(const std::string& path, const Strategy& strategy,
                      std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot open '" + path + "' for writing";
    return false;
  }
  out << SerializeStrategy(strategy);
  out.flush();
  if (!out) {
    *error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

std::unique_ptr<Strategy> LoadStrategyFile(const std::string& path,
                                           std::string* error) {
  std::unique_ptr<Strategy> strategy;
  const Status status = LoadStrategyFileOr(path, &strategy);
  if (!status.ok()) {
    *error = status.message();
    return nullptr;
  }
  return strategy;
}

Status LoadStrategyFileOr(const std::string& path,
                          std::unique_ptr<Strategy>* out) {
  HDMM_CHECK(out != nullptr);
  out->reset();
  if (HDMM_FAILPOINT("strategy_io.load.io_error")) {
    return Status::IoError("injected: strategy_io.load.io_error at '" + path +
                           "'");
  }
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("cannot open '" + path + "': no such file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("read from '" + path + "' failed");
  }
  std::string error;
  *out = ParseStrategy(buffer.str(), &error);
  if (*out == nullptr) {
    return Status::Corruption("'" + path + "': " + error);
  }
  return Status::Ok();
}

}  // namespace hdmm
