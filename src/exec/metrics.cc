#include "exec/metrics.h"

#include <iomanip>
#include <sstream>
#include <type_traits>

#include "common/metrics_registry.h"

namespace dynopt {

void ExecMetrics::Add(const ExecMetrics& other) {
  VisitMetricFields(
      [](const MetricField& field, auto& mine, const auto& theirs) {
        switch (field.merge) {
          case MetricMerge::kSum:
            mine += theirs;
            break;
          case MetricMerge::kMax:
            if (theirs > mine) mine = theirs;
            break;
          case MetricMerge::kLast:
            mine = theirs;
            break;
        }
      },
      *this, other);
}

std::string ExecMetrics::ToString() const {
  std::ostringstream os;
  const char* sep = "";
  VisitMetricFields(
      [&](const MetricField& field, const auto& value) {
        os << sep << field.name << "=" << value;
        sep = " ";
      },
      *this);
  return os.str();
}

std::string MeteringDiff(const ExecMetrics& a, const ExecMetrics& b) {
  std::ostringstream os;
  os << std::setprecision(17);
  VisitMetricFields(
      [&](const MetricField& field, const auto& x, const auto& y) {
        if (field.kind == MetricKind::kMetered && x != y) {
          os << field.name << ": " << x << " != " << y << "\n";
        }
      },
      a, b);
  return os.str();
}

void ExportQueryCounters(const ExecMetrics& metrics,
                         MetricsRegistry* registry) {
  VisitMetricFields(
      [&](const MetricField& field, auto value) {
        if constexpr (std::is_integral_v<decltype(value)>) {
          if (field.merge == MetricMerge::kSum) {
            registry->counter(std::string("query.") + field.name)
                ->Increment(static_cast<uint64_t>(value));
          }
        }
      },
      metrics);
}

}  // namespace dynopt
