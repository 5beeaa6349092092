#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double Now() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double PeakRssMib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Tracer::Record(Span span) {
  fedfc::MutexLock lock(mutex_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Snapshot() const {
  fedfc::MutexLock lock(mutex_);
  return spans_;
}

void Tracer::LinkParents(std::vector<Span>& spans) {
  std::unordered_map<int64_t, int64_t> round_span;
  std::map<std::pair<int64_t, int64_t>, int64_t> execute_span;
  for (const Span& s : spans) {
    if (s.name == "round") round_span[s.round] = s.id;
    // A retried call keeps the last attempt; handles nest inside it.
    if (s.name == "execute") execute_span[{s.round, s.client}] = s.id;
  }
  for (Span& s : spans) {
    if (s.name == "execute" || s.name == "consume") {
      auto it = round_span.find(s.round);
      if (it != round_span.end()) s.parent = it->second;
    } else if (s.name == "handle") {
      auto it = execute_span.find({s.round, s.client});
      if (it != execute_span.end()) s.parent = it->second;
    }
  }
}

std::map<std::string, std::pair<double, double>> Tracer::SelfTimes(
    const std::vector<Span>& spans) {
  // Covered time is the union of the children's intervals: a round's
  // executes run concurrently on the fan-out threads and overlap.
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, std::pair<double, double>> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = iv[0].first;
      double cur_hi = iv[0].second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = iv[i].first;
        }
        cur_hi = std::max(cur_hi, iv[i].second);
      }
      covered += cur_hi - cur_lo;
    }
    auto& [total, self] = out[s.name];
    total += s.seconds();
    self += std::max(0.0, s.seconds() - covered);
  }
  return out;
}

fedfc::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  LinkParents(spans);
  std::ofstream out(path);
  if (!out) return fedfc::Status::Internal("trace: cannot open " + path);
  for (const Span& s : spans) {
    out << "{\"run\":\"" << JsonEscape(run_id_) << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"detail\":\"" << JsonEscape(s.detail)
        << "\",\"start\":" << JsonNumber(s.start)
        << ",\"end\":" << JsonNumber(s.end) << ",\"round\":" << s.round
        << ",\"client\":" << s.client << ",\"worker\":" << s.worker
        << ",\"ok\":" << (s.ok ? "true" : "false") << "}\n";
  }
  out.close();
  if (!out) return fedfc::Status::Internal("trace: write failed for " + path);
  return fedfc::Status::OK();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
