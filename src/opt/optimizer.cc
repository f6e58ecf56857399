#include "opt/optimizer.h"

#include <algorithm>

namespace dynopt {

void SortRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
}

std::string TempTablePrefix(const QueryContext* ctx, const std::string& kind) {
  return ctx != nullptr ? "q" + std::to_string(ctx->id()) + "_" + kind : kind;
}

}  // namespace dynopt
