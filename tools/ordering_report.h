// The write-ordering report printer cffs_run --check-ordering and
// cffs_ordercheck share: the cffs-ordercheck-v1 JSON goes to --report-out
// (or stdout), one line per violation to stderr, and the result is the
// exit status.
#ifndef CFFS_TOOLS_ORDERING_REPORT_H_
#define CFFS_TOOLS_ORDERING_REPORT_H_

#include <cstdio>
#include <string>

#include "src/check/ordering_checker.h"
#include "src/util/cli.h"

namespace cffs {

// Returns 0 when the report is clean and 1 on a violation or a write error.
inline int PrintOrderingReport(const check::OrderingReport& report,
                               const std::string& report_out) {
  const std::string json = report.ToJson(2);
  if (!report_out.empty()) {
    if (Status s = WriteTextFile(report_out, json); !s.ok()) {
      return Fail("report", s);
    }
    std::printf("report: %s\n", report_out.c_str());
  } else {
    std::printf("%s\n", json.c_str());
  }
  for (const check::Violation& v : report.violations) {
    std::fprintf(stderr, "%s op=%llu bno=%llu subject=%llu: %s\n",
                 check::RuleName(v.rule),
                 static_cast<unsigned long long>(v.op_id),
                 static_cast<unsigned long long>(v.bno),
                 static_cast<unsigned long long>(v.subject),
                 v.detail.c_str());
  }
  return report.clean() ? 0 : 1;
}

}  // namespace cffs

#endif  // CFFS_TOOLS_ORDERING_REPORT_H_
