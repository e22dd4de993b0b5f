#include "harness/speedup.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace harness {
namespace {

// Minimal JSON string escaping (names here are ASCII identifiers, but be
// correct anyway).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void write_bench_json(const std::string& path, const std::string& bench,
                      const std::vector<BenchResult>& results,
                      double calibration_ops_per_sec) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_bench_json: cannot open " + path);
  out << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n";
  if (calibration_ops_per_sec > 0.0) {
    out << "  \"calibration_ops_per_sec\": " << json_double(calibration_ops_per_sec) << ",\n";
  }
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    const double ops_per_sec =
        r.wall_seconds > 0.0 ? static_cast<double>(r.ops) / r.wall_seconds : 0.0;
    out << "    {\"name\": \"" << json_escape(r.name) << "\", \"ops\": " << r.ops
        << ", \"wall_seconds\": " << json_double(r.wall_seconds)
        << ", \"ops_per_sec\": " << json_double(ops_per_sec)
        << ", \"sim_cycles\": " << r.sim_cycles;
    if (calibration_ops_per_sec > 0.0) {
      out << ", \"normalized\": " << json_double(ops_per_sec / calibration_ops_per_sec);
    }
    for (const auto& [key, value] : r.extras) {
      out << ", \"" << json_escape(key) << "\": " << json_double(value);
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace harness
