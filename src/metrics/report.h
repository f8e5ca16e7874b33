// Fixed-width table rendering for `campaign --figures`, which regenerates the
// paper's tables and figures on the console. The implementation lives in
// src/support/table.h so layers below metrics (observability) can render the
// same tables; this alias keeps the historical opec_metrics::Table name.

#ifndef SRC_METRICS_REPORT_H_
#define SRC_METRICS_REPORT_H_

#include <string>

#include "src/support/table.h"

namespace opec_metrics {

using Table = opec_support::Table;

// "12.34" style formatting helpers.
std::string Pct(double fraction, int decimals = 2);   // 0.0123 -> "1.23"
std::string Num(double value, int decimals = 2);

}  // namespace opec_metrics

#endif  // SRC_METRICS_REPORT_H_
