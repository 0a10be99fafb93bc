// Dual-backend ablation (DESIGN.md §15): does explicit grouping still pay
// off when the device has no positioning cost?
//
// 2x2x2 sweep — device (spinning | flash) x grouping (embedded-inodes-only
// | full C-FFS) x allocation (classic block maps | extents) — over the
// small-file microbenchmark and the PostMark-style trace. Every cell
// records the per-phase device time breakdown (including the flash model's
// channel-wait / program / erase phases), the cross-layer span attribution,
// and a full MetricsSnapshot whose invariants (phase sums == end-to-end
// latency, flash busy == overhead + wait + read + program + erase exactly)
// must hold or the bench fails. So does a row whose phases miss its busy
// time by 1 us or more (bench::RunSmallFile), or a sweep that did not write
// 8 x 4 smallfile rows plus 8 postmark rows.
//
// Two claims are gated, not just printed:
//
//   (a) Flash invariance: grouping's small-file create speedup on flash is
//       bounded (< kFlashGroupingBound) while the same comparison on the
//       spinning disk shows the paper's large win. Grouping exploits
//       positioning costs; remove them and the benefit must collapse.
//   (b) Flash wins on small files: at queue depth >= 8 the flash backend
//       beats the spinning disk by >= kFlashMinSpeedup on small-file
//       create for the full C-FFS configuration.
//
// Emits BENCH_flash_ablation.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/workload/trace.h"

using namespace cffs;

namespace {

// Gate (a): on flash, C-FFS may beat embedded-only on create by at most
// this factor (channel striping still likes contiguity a little; what must
// disappear is the multi-x positioning win). The spinning disk must show
// at least kSpinGroupingMin so the contrast is real.
constexpr double kFlashGroupingBound = 1.30;
constexpr double kSpinGroupingMin = 1.30;
// Gate (b): flash over spinning on small-file create, full C-FFS.
constexpr double kFlashMinSpeedup = 2.0;

struct Cell {
  bool flash = false;
  bool grouping = false;  // embedded-only vs full C-FFS
  bool extents = false;
  std::string name() const {
    std::string n = flash ? "flash" : "spinning";
    n += grouping ? "/cffs" : "/embedded";
    n += extents ? "/extents" : "/classic";
    return n;
  }
  sim::FsKind kind() const {
    return grouping ? sim::FsKind::kCffs : sim::FsKind::kEmbedOnly;
  }
  sim::SimConfig config() const {
    sim::SimConfig c;
    c.device = flash ? "flash" : "spinning";
    c.extent_alloc = extents;
    return c;
  }
};

// files_per_sec of the smallfile create phase, keyed by cell name.
struct CreateRate {
  std::string cell;
  double rate = 0;
};

double RateOf(const std::vector<CreateRate>& rates, const std::string& cell) {
  for (const auto& r : rates) {
    if (r.cell == cell) return r.rate;
  }
  std::fprintf(stderr, "internal: no create rate for cell %s\n", cell.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::ParseArgs(argc, argv).quick;

  workload::SmallFileParams sf;
  sf.num_files = quick ? 1000 : 5000;
  sf.num_dirs = quick ? 10 : 50;
  sf.file_bytes = 1024;
  workload::PostmarkParams pm;
  if (quick) {
    pm.initial_files = 200;
    pm.transactions = 600;
  }
  const workload::Trace trace = workload::GeneratePostmark(pm);

  bench::Report report("flash_ablation");
  report.Set("quick", quick);
  {
    obs::Json p = obs::Json::Object();
    p.Set("smallfile_files", sf.num_files);
    p.Set("smallfile_dirs", sf.num_dirs);
    p.Set("file_bytes", sf.file_bytes);
    p.Set("postmark_initial_files", pm.initial_files);
    p.Set("postmark_transactions", pm.transactions);
    const flash::FlashSpec spec = flash::DefaultFlash();
    p.Set("flash_channels", spec.channels);
    p.Set("flash_queue_depth", spec.queue_depth);
    report.Set("params", std::move(p));
  }

  std::printf("Flash ablation: 2x2x2 (device x grouping x allocation), "
              "%u-file smallfile + %u-txn postmark%s\n",
              sf.num_files, pm.transactions, quick ? " [quick]" : "");
  std::printf("%-26s %10s %10s %10s %10s %10s\n", "cell", "create/s",
              "read/s", "delete/s", "pm ops/s", "dev busy");

  std::vector<Cell> cells;
  for (int d = 0; d < 2; ++d)
    for (int g = 0; g < 2; ++g)
      for (int e = 0; e < 2; ++e)
        cells.push_back(Cell{d == 1, g == 1, e == 1});

  std::vector<CreateRate> create_rates;
  obs::Json snapshots = obs::Json::Object();

  for (const Cell& cell : cells) {
    const std::string name = cell.name();

    // Small-file microbenchmark on a fresh machine.
    obs::Json tags = obs::Json::Object();
    tags.Set("workload", "smallfile");
    tags.Set("cell", name);
    const bench::SmallFileRun sf_run =
        bench::RunSmallFile(&report, "smallfile/" + name, cell.kind(),
                            cell.config(), sf, std::move(tags));
    snapshots.Set(name, bench::SnapshotJson(sf_run.snap));
    create_rates.push_back(
        {name, sf_run.result.phase("create").files_per_sec});

    // PostMark trace on its own fresh machine.
    const std::string pm_label = "postmark/" + name;
    std::unique_ptr<sim::SimEnv> pm_env =
        bench::NewMachine(pm_label, cell.kind(), cell.config());
    auto pm_stats = workload::ReplayTrace(pm_env.get(), trace);
    if (!pm_stats.ok()) bench::Die(pm_label + ": run", pm_stats.status());
    {
      obs::Json row = obs::Json::Object();
      row.Set("workload", "postmark");
      row.Set("cell", name);
      row.Set("seconds", pm_stats->seconds);
      row.Set("ops_per_sec", pm_stats->ops_applied / pm_stats->seconds);
      row.Set("disk_requests", pm_stats->disk_requests);
      report.AddRow(std::move(row));
    }
    bench::AddMachine(&report, pm_label, pm_env.get());

    const auto& cr = sf_run.result.phase("create");
    const double busy =
        cr.flash ? cr.flash_busy_s : cr.disk_busy_s;  // create phase only
    std::printf("%-26s %10.1f %10.1f %10.1f %10.1f %9.3fs\n", name.c_str(),
                cr.files_per_sec, sf_run.result.phase("read").files_per_sec,
                sf_run.result.phase("delete").files_per_sec,
                pm_stats->ops_applied / pm_stats->seconds, busy);
  }
  report.Set("snapshots", std::move(snapshots));
  // Four smallfile phases and one postmark row per cell.
  const size_t rows = report.root().Find("rows")->size();
  if (rows != cells.size() * 4 + cells.size()) {
    std::fprintf(stderr, "wrote %zu rows for %zu cells\n", rows,
                 cells.size());
    report.Fail();
  }

  // --- Gates -------------------------------------------------------------
  // Grouping speedup = create rate of full C-FFS over embedded-only, per
  // device, measured on the classic-allocation cells (the apples-to-apples
  // reproduction of the paper's comparison); the extent cells are reported
  // but the claim is about the device, not the allocator.
  const double spin_grouping = RateOf(create_rates, "spinning/cffs/classic") /
                               RateOf(create_rates, "spinning/embedded/classic");
  const double flash_grouping = RateOf(create_rates, "flash/cffs/classic") /
                                RateOf(create_rates, "flash/embedded/classic");
  const double flash_vs_spin = RateOf(create_rates, "flash/cffs/classic") /
                               RateOf(create_rates, "spinning/cffs/classic");
  const flash::FlashSpec spec = flash::DefaultFlash();

  const bool gate_invariance =
      flash_grouping < kFlashGroupingBound && spin_grouping >= kSpinGroupingMin;
  const bool gate_flash_wins =
      spec.queue_depth >= 8 && flash_vs_spin >= kFlashMinSpeedup;

  std::printf("\ngrouping create speedup:  spinning %.2fx   flash %.2fx "
              "(bound %.2fx) %s\n",
              spin_grouping, flash_grouping, kFlashGroupingBound,
              gate_invariance ? "[ok]" : "[FAIL]");
  std::printf("flash vs spinning create: %.2fx at QD %u (need >= %.1fx) %s\n",
              flash_vs_spin, spec.queue_depth, kFlashMinSpeedup,
              gate_flash_wins ? "[ok]" : "[FAIL]");

  {
    obs::Json g = obs::Json::Object();
    g.Set("grouping_create_speedup_spinning", spin_grouping);
    g.Set("grouping_create_ratio_flash", flash_grouping);
    g.Set("grouping_ratio_flash_bound", kFlashGroupingBound);
    g.Set("flash_vs_spinning_create_speedup", flash_vs_spin);
    g.Set("flash_min_speedup", kFlashMinSpeedup);
    g.Set("queue_depth", spec.queue_depth);
    g.Set("flash_invariance_pass", gate_invariance);
    g.Set("flash_wins_pass", gate_flash_wins);
    report.Set("gates", std::move(g));
  }
  report.Write();

  if (!gate_invariance || !gate_flash_wins) {
    std::fprintf(stderr, "FAIL: ablation gate\n");
    return 1;
  }
  return 0;
}
