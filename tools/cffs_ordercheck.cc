// cffs_ordercheck: verify the metadata write-ordering rules over a recorded
// trace.
//
//   cffs_ordercheck --trace=PATH [--report-out=PATH]
//
// PATH is a lossless record-format trace (cffs-trace-v3), as written by
// cffs_run --record-out; a dump of another format version is refused. To
// trace a workload and check it in one step, run cffs_run --check-ordering
// instead.
//
// Exit status: 0 when the trace is clean, 1 on violations or errors, 2 on a
// bad argument (so a typo can never pass for a conviction).
#include <string>

#include "src/check/ordering_checker.h"
#include "src/util/cli.h"
#include "tools/ordering_report.h"

using namespace cffs;

int main(int argc, char** argv) {
  std::string trace_path, report_out;
  Args args(argc, argv);
  args.String("--trace", &trace_path);
  args.String("--report-out", &report_out);
  Status s = args.Finish();
  if (s.ok() && trace_path.empty()) s = InvalidArgument("--trace=PATH is required");
  if (!s.ok()) return UsageError(argv[0], s, "--trace=PATH [--report-out=PATH]");

  auto text = ReadTextFile(trace_path);
  if (!text.ok()) return Fail("read", text.status());
  auto trace = obs::TraceRecorder::FromRecordJson(*text);
  if (!trace.ok()) return Fail("parse " + trace_path, trace.status());
  return PrintOrderingReport(check::OrderingChecker::CheckTrace(*trace),
                             report_out);
}
