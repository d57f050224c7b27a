// Tracer, statistics, metric sink and host probes of the harness.
#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "backproj/backprojector.h"
#include "common/cpu_features.h"
#include "filter/filter_engine.h"
#include "geometry/cbct.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point& process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

/// JSON string escaping for the few free-text fields (names, CPU model).
std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

// -- Tracer ------------------------------------------------------------------------

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - process_epoch()).count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int request)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = std::move(name);
  span.t0 = tracer_->now();
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = request;
  if (request < 0 && span.parent >= 0) {
    span.request = tracer_->spans_[static_cast<std::size_t>(span.parent)].request;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].t1 = tracer_->now();
  tracer_->open_.pop_back();
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t n = 0; n < spans_.size(); ++n) {
    const Span& s = spans_[n];
    const std::string parent =
        s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name;
    char timing[96];
    std::snprintf(timing, sizeof timing, "\"ts\":%.3f,\"dur\":%.3f",
                  s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
    out << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"e2ebench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        << timing << ",\"args\":{\"span\":" << n << ",\"parent\":" << s.parent
        << ",\"parent_name\":\"" << json_escape(parent)
        << "\",\"request\":" << s.request << "}}"
        << (n + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

// -- statistics ------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

// -- host ------------------------------------------------------------------------

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_fraction(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double spin_seconds() {
  std::vector<double> times;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      x ^= x >> 29;
    }
    sink = sink + x;
    times.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(times);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string host_fingerprint_json(double steal_frac, double spin_s) {
  std::string model = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) model = line.substr(colon + 2);
        break;
      }
    }
  }
  const ifdk::CpuFeatures& f = ifdk::cpu_features();
  std::string features;
  auto add = [&](bool on, const char* name) {
    if (!on) return;
    features += (features.empty() ? "\"" : ",\"") + std::string(name) + "\"";
  };
  add(f.avx2, "avx2");
  add(f.fma, "fma");
  add(f.avx512f, "avx512f");
  add(f.avx512dq, "avx512dq");
  add(f.avx512vl, "avx512vl");
  add(f.neon, "neon");

  // The backends kAuto resolves to, probed through the layers' own
  // public constructors at a small geometry.
  const ifdk::geo::CbctGeometry g =
      ifdk::geo::make_standard_geometry({{32, 32, 8}, {16, 16, 16}});
  ifdk::bp::BpConfig cfg =
      ifdk::bp::config_for(ifdk::bp::KernelVariant::kL1Tran);
  const std::string bp_backend = ifdk::bp::Backprojector(g, cfg).backend_name();
  const std::string fft_backend =
      ifdk::filter::FilterEngine(g).fft_backend_name();

  std::ostringstream out;
  out.precision(6);
  out << "{\"host\":{\"cpu_model\":\"" << json_escape(model)
      << "\",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_features\":[" << features << "],\"bp_backend\":\""
      << bp_backend << "\",\"fft_backend\":\"" << fft_backend
      << "\",\"steal_frac\":" << steal_frac << ",\"spin_s\":" << spin_s
      << "}}";
  return out.str();
}

}  // namespace e2e
