#include "obs/export.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace is2::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Escape a Prometheus label value / JSON string body (same rules cover
/// both: backslash, double quote, newline).
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string label_block(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  if (labels.empty() && !extra_key) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escaped(v) + "\"";
  }
  if (extra_key) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

/// Upper edge of log-histogram bin `b`, back in milliseconds.
double bucket_upper_ms(const util::Histogram& hist, std::size_t b) {
  return std::pow(10.0, hist.lo() + static_cast<double>(b + 1) * hist.bin_width());
}

}  // namespace

std::string to_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  std::string last_name;
  for (const MetricPoint& p : snapshot.points) {
    if (p.name != last_name) {
      last_name = p.name;
      const std::string help = p.help.empty() ? "(no help)" : escaped(p.help);
      out += "# HELP " + p.name + " " + help + "\n";
      out += "# TYPE " + p.name + " " + metric_type_name(p.type) + "\n";
    }
    switch (p.type) {
      case MetricType::counter:
        appendf(out, "%s%s %.0f\n", p.name.c_str(), label_block(p.labels).c_str(), p.value);
        break;
      case MetricType::gauge:
        appendf(out, "%s%s %.17g\n", p.name.c_str(), label_block(p.labels).c_str(), p.value);
        break;
      case MetricType::histogram: {
        const util::Histogram& hist = p.histogram.histogram;
        std::size_t cum = 0;
        for (std::size_t b = 0; b < hist.bins(); ++b) {
          cum += hist.count(b);
          char le[32];
          std::snprintf(le, sizeof le, "%.6g", bucket_upper_ms(hist, b));
          appendf(out, "%s_bucket%s %zu\n", p.name.c_str(),
                  label_block(p.labels, "le", le).c_str(), cum);
        }
        appendf(out, "%s_bucket%s %zu\n", p.name.c_str(),
                label_block(p.labels, "le", "+Inf").c_str(), hist.total());
        appendf(out, "%s_sum%s %.17g\n", p.name.c_str(), label_block(p.labels).c_str(),
                p.histogram.stats.sum());
        appendf(out, "%s_count%s %zu\n", p.name.c_str(), label_block(p.labels).c_str(),
                p.histogram.stats.count());
        break;
      }
    }
  }
  return out;
}

std::string to_json(const RegistrySnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricPoint& p : snapshot.points) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\":\"" + p.name + "\",\"type\":\"" + metric_type_name(p.type) +
           "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [k, v] : p.labels) {
      if (!first_label) out += ",";
      first_label = false;
      out += "\"" + k + "\":\"" + escaped(v) + "\"";
    }
    out += "}";
    if (p.type == MetricType::histogram) {
      const auto& s = p.histogram.stats;
      appendf(out,
              ",\"count\":%zu,\"sum_ms\":%.17g,\"mean_ms\":%.17g,\"min_ms\":%.17g,"
              "\"max_ms\":%.17g,\"p50_ms\":%.17g,\"p99_ms\":%.17g",
              s.count(), s.sum(), s.mean(), s.min(), s.max(), p.histogram.p50_ms(),
              p.histogram.p99_ms());
    } else {
      appendf(out, ",\"value\":%.17g", p.value);
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string to_perfetto(const std::vector<Span>& spans,
                        const std::vector<std::string>& thread_labels) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"is2\"}}";
  for (std::size_t i = 0; i < thread_labels.size(); ++i) {
    const std::string label =
        thread_labels[i].empty() ? "thread-" + std::to_string(i + 1) : thread_labels[i];
    appendf(out, ",\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,", i + 1);
    out += "\"args\":{\"name\":\"" + escaped(label) + "\"}}";
  }
  for (const Span& s : spans) {
    appendf(out, ",\n  {\"name\":\"%s\",\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%.3f",
            s.name, s.instant ? "i" : "X", s.thread, s.start_ms * 1e3);
    if (s.instant)
      out += ",\"s\":\"t\"";
    else
      appendf(out, ",\"dur\":%.3f", s.dur_ms * 1e3);
    appendf(out, ",\"args\":{\"trace_id\":\"%llu\",\"span_id\":%u,\"parent_id\":%u}}",
            static_cast<unsigned long long>(s.trace_id), s.span_id, s.parent_id);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace is2::obs
