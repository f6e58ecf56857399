#include "opt/decision_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dynopt {

namespace {

std::string FormatRows(double rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld",
                static_cast<long long>(rows + 0.5));
  return buf;
}

std::string FormatQError(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", q);
  return buf;
}

}  // namespace

std::string PlanAlternative::ToString() const {
  std::ostringstream os;
  os << description << " (cost " << cost << ")";
  return os.str();
}

double PlanDecision::QError() const {
  if (estimated_rows < 0 || actual_rows < 0) return 0;
  double est = std::max(estimated_rows, 1.0);
  double actual = std::max(actual_rows, 1.0);
  return std::max(est / actual, actual / est);
}

std::string PlanDecision::ToString() const {
  std::ostringstream os;
  os << "#" << id << " " << point << ": " << chosen;
  if (estimated_rows >= 0) os << " est_rows=" << FormatRows(estimated_rows);
  if (!provenance.empty()) os << " est_src=" << provenance;
  if (!prior_key.empty()) {
    os << " prior=" << prior_key << "x" << FormatQError(prior_factor);
  }
  if (has_actual()) {
    os << " actual_rows=" << FormatRows(actual_rows)
       << " q_error=" << FormatQError(QError());
  }
  if (estimated_cost >= 0) os << " est_cost=" << estimated_cost;
  for (const auto& alt : rejected) {
    os << "\n    rejected: " << alt.ToString();
  }
  return os.str();
}

int DecisionLog::Record(PlanDecision decision) {
  decision.id = static_cast<int>(decisions_.size());
  decisions_.push_back(std::move(decision));
  return decisions_.back().id;
}

void DecisionLog::SetActual(int id, double rows) {
  if (id < 0 || id >= static_cast<int>(decisions_.size())) return;
  decisions_[static_cast<size_t>(id)].actual_rows = rows;
}

size_t DecisionLog::NumWithActuals() const {
  size_t n = 0;
  for (const auto& d : decisions_) {
    if (d.has_actual()) ++n;
  }
  return n;
}

double DecisionLog::MaxQError() const {
  double worst = 0;
  for (const auto& d : decisions_) {
    worst = std::max(worst, d.QError());
  }
  return worst;
}

double DecisionLog::GeoMeanQError() const {
  double sum_log = 0;
  size_t n = 0;
  for (const auto& d : decisions_) {
    const double q = d.QError();
    if (q >= 1.0) {
      sum_log += std::log(q);
      ++n;
    }
  }
  return n == 0 ? 1.0 : std::exp(sum_log / static_cast<double>(n));
}

std::string DecisionLog::ToString() const {
  std::ostringstream os;
  for (const auto& d : decisions_) os << d.ToString() << "\n";
  return os.str();
}

std::string SubtreeKey(const std::set<std::string>& aliases) {
  std::string key;
  for (const auto& alias : aliases) {
    if (!key.empty()) key += '+';
    key += alias;
  }
  return key;
}

}  // namespace dynopt
