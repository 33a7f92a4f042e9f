#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "runtime/status.h"
#include "runtime/strcat.h"

namespace saber::obs {

int64_t Histogram::count() const {
  int64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) total += bucket_count(i);
  return total;
}

int64_t Histogram::PercentileNanos(double p) const {
  Counts none;
  return std::min(WindowPercentileNanos(p, &none), max_nanos());
}

int64_t Histogram::WindowPercentileNanos(double p, Counts* since) const {
  since->resize(kBuckets);
  Counts window(kBuckets);
  int64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const int64_t now = bucket_count(i);
    window[i] = now - (*since)[i];
    (*since)[i] = now;
    total += window[i];
  }
  if (total == 0) return 0;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(total))));
  int64_t seen = 0;
  size_t i = 0;
  while (i + 1 < kBuckets && (seen += window[i]) < rank) ++i;
  return BucketUpperBound(i);
}

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%lld mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
                static_cast<long long>(count()), mean_nanos() / 1e3,
                PercentileNanos(50) / 1e3, PercentileNanos(99) / 1e3,
                max_nanos() / 1e3);
  return buf;
}

int64_t Histogram::BucketUpperBound(size_t i) {
  if (i < kSubBuckets) return static_cast<int64_t>(i);
  // Inverse of BucketIndex: bucket (octave, sub) holds
  // [(16 + sub) << (octave - 1), (16 + sub + 1) << (octave - 1)).
  const size_t octave = i / kSubBuckets;
  const size_t sub = i % kSubBuckets;
  return static_cast<int64_t>(((kSubBuckets + sub + 1) << (octave - 1)) - 1);
}

const std::vector<int64_t>& Histogram::ExpositionBounds() {
  static const std::vector<int64_t> bounds = [] {
    std::vector<int64_t> b;
    for (int k = 13; k <= 33; ++k) b.push_back((int64_t{1} << k) - 1);
    return b;
  }();
  return bounds;
}

MetricsRegistry::Family* MetricsRegistry::GetFamilyLocked(
    std::string_view name, MetricType type, std::string_view help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family f;
    f.type = type;
    f.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(f)).first;
  } else {
    SABER_CHECK(it->second.type == type);  // name ↔ type is a global contract
    if (it->second.help.empty() && !help.empty()) {
      it->second.help = std::string(help);
    }
  }
  return &it->second;
}

MetricsRegistry::Series* MetricsRegistry::GetSeriesLocked(Family* family,
                                                          Labels&& labels) {
  for (Series& s : family->series) {
    if (s.labels == labels) return &s;
  }
  Series s;
  s.labels = std::move(labels);
  family->series.push_back(std::move(s));
  return &family->series.back();
}

Counter* MetricsRegistry::GetCounter(std::string_view name, Labels labels,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kCounter, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(s->ext_counter == nullptr);  // already an external view
  if (!s->counter) s->counter = std::make_unique<Counter>();
  return s->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, Labels labels,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kGauge, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(s->ext_gauge == nullptr);
  if (!s->gauge) s->gauge = std::make_unique<Gauge>();
  return s->gauge.get();
}

void MetricsRegistry::RegisterCounter(std::string_view name, Labels labels,
                                      const Counter* c, const void* owner,
                                      std::string_view help) {
  SABER_CHECK(c != nullptr && owner != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kCounter, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(!s->counter);  // owned and external views must not collide
  s->ext_counter = c;
  s->owner = owner;
}

void MetricsRegistry::RegisterGauge(std::string_view name, Labels labels,
                                    const Gauge* g, const void* owner,
                                    std::string_view help) {
  SABER_CHECK(g != nullptr && owner != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kGauge, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(!s->gauge);
  s->ext_gauge = g;
  s->owner = owner;
}

void MetricsRegistry::RegisterHistogram(std::string_view name, Labels labels,
                                        const Histogram* h, const void* owner,
                                        std::string_view help) {
  SABER_CHECK(h != nullptr && owner != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kHistogram, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  s->ext_histogram = h;
  s->owner = owner;
}

void MetricsRegistry::Unregister(const void* owner) {
  if (owner == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, family] : families_) {
      auto& v = family.series;
      v.erase(std::remove_if(v.begin(), v.end(),
                             [owner](const Series& s) {
                               return s.owner == owner;
                             }),
              v.end());
    }
  }
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.erase(std::remove_if(collectors_.begin(), collectors_.end(),
                                   [owner](const CollectorEntry& e) {
                                     return e.owner == owner;
                                   }),
                    collectors_.end());
}

void MetricsRegistry::AddCollector(std::function<void()> fn,
                                   const void* owner) {
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.push_back(CollectorEntry{std::move(fn), owner});
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  {
    // Collectors may register instruments, so they run outside mu_.
    std::lock_guard<std::mutex> lock(collectors_mu_);
    for (const auto& entry : collectors_) entry.fn();
  }
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fs;
    fs.name = name;
    fs.help = family.help;
    fs.type = family.type;
    if (family.type == MetricType::kHistogram) {
      fs.bounds = Histogram::ExpositionBounds();
    }
    fs.series.resize(family.series.size());
    // The single pass of the consistency contract: every atomic of this
    // family is loaded exactly once, back to back, with the labels copied
    // only after the values are read.
    for (size_t i = 0; i < family.series.size(); ++i) {
      const Series& s = family.series[i];
      SeriesSnapshot& out = fs.series[i];
      switch (family.type) {
        case MetricType::kCounter:
          out.counter_value =
              s.counter ? s.counter->value() : s.ext_counter->value();
          break;
        case MetricType::kGauge:
          out.gauge_value = s.gauge ? s.gauge->value() : s.ext_gauge->value();
          break;
        case MetricType::kHistogram: {
          // Each edge closes a layout bucket, so bucket b counts, exactly,
          // under the first edge >= its upper bound.
          out.bucket_counts.assign(fs.bounds.size() + 1, 0);
          for (size_t b = 0; b < Histogram::kBuckets; ++b) {
            const int64_t c = s.ext_histogram->bucket_count(b);
            out.bucket_counts[std::lower_bound(fs.bounds.begin(), fs.bounds.end(),
                                               Histogram::BucketUpperBound(b)) -
                              fs.bounds.begin()] += c;
            out.count += c;
          }
          out.sum = s.ext_histogram->sum();
          break;
        }
      }
    }
    for (size_t i = 0; i < family.series.size(); ++i) {
      fs.series[i].labels = family.series[i].labels;
    }
    snap.families.push_back(std::move(fs));
  }
  return snap;
}

namespace {

/// Label-value escaping per the text format: backslash, double quote, LF.
void AppendEscaped(std::string* out, const std::string& v) {
  for (char c : v) {
    if (c == '\\') {
      *out += "\\\\";
    } else if (c == '"') {
      *out += "\\\"";
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
}

void AppendLabels(std::string* out, const Labels& labels,
                  const std::string* extra_key = nullptr,
                  const std::string* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    AppendEscaped(out, v);
    *out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) *out += ',';
    *out += *extra_key;
    *out += "=\"";
    AppendEscaped(out, *extra_value);
    *out += '"';
  }
  *out += '}';
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  static const std::string kLe = "le";
  static const std::string kInf = "+Inf";
  for (const FamilySnapshot& f : snapshot.families) {
    if (f.series.empty()) continue;
    if (!f.help.empty()) {
      out += "# HELP ";
      out += f.name;
      out += ' ';
      // HELP text escaping: backslash and LF only (no quotes involved).
      for (char c : f.help) {
        if (c == '\\') {
          out += "\\\\";
        } else if (c == '\n') {
          out += "\\n";
        } else {
          out += c;
        }
      }
      out += '\n';
    }
    out += "# TYPE ";
    out += f.name;
    out += ' ';
    out += TypeName(f.type);
    out += '\n';
    for (const SeriesSnapshot& s : f.series) {
      switch (f.type) {
        case MetricType::kCounter:
          out += f.name;
          AppendLabels(&out, s.labels);
          out += ' ';
          out += StrCat(s.counter_value);
          out += '\n';
          break;
        case MetricType::kGauge:
          out += f.name;
          AppendLabels(&out, s.labels);
          out += ' ';
          out += FormatDouble(s.gauge_value);
          out += '\n';
          break;
        case MetricType::kHistogram: {
          int64_t cumulative = 0;
          for (size_t b = 0; b < s.bucket_counts.size(); ++b) {
            cumulative += s.bucket_counts[b];
            const std::string le = b < f.bounds.size()
                                       ? StrCat(f.bounds[b])
                                       : kInf;
            out += f.name;
            out += "_bucket";
            AppendLabels(&out, s.labels, &kLe, &le);
            out += ' ';
            out += StrCat(cumulative);
            out += '\n';
          }
          out += f.name;
          out += "_sum";
          AppendLabels(&out, s.labels);
          out += ' ';
          out += StrCat(s.sum);
          out += '\n';
          out += f.name;
          out += "_count";
          AppendLabels(&out, s.labels);
          out += ' ';
          out += StrCat(cumulative);
          out += '\n';
          break;
        }
      }
    }
  }
  return out;
}

namespace {

/// Percentile estimate from fixed buckets: the upper bound of the bucket
/// that crosses the rank (+Inf reports the last finite bound).
int64_t BucketPercentile(const FamilySnapshot& f, const SeriesSnapshot& s,
                         double q) {
  if (s.count == 0) return 0;
  const int64_t rank = static_cast<int64_t>(q * static_cast<double>(s.count));
  int64_t seen = 0;
  for (size_t b = 0; b < s.bucket_counts.size(); ++b) {
    seen += s.bucket_counts[b];
    if (seen > rank) {
      return b < f.bounds.size() ? f.bounds[b] : f.bounds.back();
    }
  }
  return f.bounds.empty() ? 0 : f.bounds.back();
}

}  // namespace

std::string FormatMetricsSummary(const MetricsSnapshot& snapshot,
                                 std::string_view line_prefix) {
  std::string out;
  for (const FamilySnapshot& f : snapshot.families) {
    bool any_nonzero = false;
    for (const SeriesSnapshot& s : f.series) {
      if ((f.type == MetricType::kCounter && s.counter_value != 0) ||
          (f.type == MetricType::kGauge && s.gauge_value != 0.0) ||
          (f.type == MetricType::kHistogram && s.count != 0)) {
        any_nonzero = true;
        break;
      }
    }
    if (!any_nonzero) continue;
    for (const SeriesSnapshot& s : f.series) {
      out += line_prefix;
      out += f.name;
      AppendLabels(&out, s.labels);
      out += ' ';
      switch (f.type) {
        case MetricType::kCounter:
          out += StrCat(s.counter_value);
          break;
        case MetricType::kGauge:
          out += FormatDouble(s.gauge_value);
          break;
        case MetricType::kHistogram:
          out += StrCat("count=", s.count, " p50<=",
                        BucketPercentile(f, s, 0.50), " p99<=",
                        BucketPercentile(f, s, 0.99));
          break;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace saber::obs
